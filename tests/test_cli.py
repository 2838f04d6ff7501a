import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cellseq import cli, corpus, evaluation, models
from cellseq.cellspace import RawTrajectory, save_cellmap
from cellseq.cli import _apply_config, build_parser, main
from cellseq.tokens import END, START

from oracles import sample_oracle
from report_tables import read_aggregates, read_improvement_gm, read_improvement_m


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Tiny end-to-end run: synth -> discretize -> accumulate -> train -> evaluate."""
    root = tmp_path_factory.mktemp("pipeline")
    synth = root / "synth"
    disc = root / "disc"
    acc = root / "acc"
    rnn = root / "rnn"
    arnn = root / "arnn"
    ev_rnn = root / "eval_rnn"
    ev_arnn = root / "eval_arnn"
    rep = root / "report"

    assert main(["synth", "--out", str(synth), "--rows", "4", "--cols", "6", "--trips", "300",
                 "--horizon-min", "240", "--block-min", "30", "--seed", "5"]) == 0
    assert main(["discretize", "--in", str(synth / "trips.tsv"), "--out", str(disc),
                 "--radius", "135", "--split", "0.7,0.15,0.15", "--seed", "1"]) == 0
    assert main(["accumulate", "--trips", str(synth / "trips.tsv"),
                 "--cellmap", str(disc / "cellmap.tsv"),
                 "--sequences", str(disc / "sequences.tsv"), "--out", str(acc)]) == 0
    assert main(["train", "--sequences", str(disc / "sequences.tsv"), "--model", "rnn",
                 "--d-e", "8", "--d-h", "8", "--lr", "3e-3", "--epochs", "2",
                 "--seed", "2", "--out", str(rnn)]) == 0
    assert main(["train", "--sequences", str(disc / "sequences.tsv"), "--model", "arnn",
                 "--accumulation", str(acc / "accumulation.tsv"),
                 "--d-e", "8", "--d-h", "8", "--lr", "3e-3", "--epochs", "2",
                 "--seed", "2", "--out", str(arnn)]) == 0
    assert main(["evaluate", "--ckpt", str(rnn / "model.ckpt"),
                 "--sequences", str(disc / "sequences.tsv"), "--split", "test",
                 "--k", "3", "--limit", "10", "--seed", "9", "--out", str(ev_rnn)]) == 0
    assert main(["evaluate", "--ckpt", str(arnn / "model.ckpt"),
                 "--sequences", str(disc / "sequences.tsv"), "--split", "test",
                 "--accumulation", str(acc / "accumulation.tsv"),
                 "--k", "3", "--limit", "10", "--seed", "9", "--out", str(ev_arnn)]) == 0
    assert main(["report", "--arnn", str(ev_arnn / "scores.tsv"),
                 "--rnn", str(ev_rnn / "scores.tsv"), "--out", str(rep)]) == 0
    return root


def test_pipeline_outputs_exist(pipeline):
    assert (pipeline / "synth" / "trips.tsv").exists()
    assert (pipeline / "synth" / "world.json").exists()
    assert (pipeline / "disc" / "cellmap.tsv").exists()
    assert (pipeline / "disc" / "sequences.tsv").exists()
    assert (pipeline / "acc" / "accumulation.tsv").exists()
    assert (pipeline / "rnn" / "model.ckpt").exists()
    assert (pipeline / "eval_rnn" / "scores.tsv").exists()
    assert (pipeline / "eval_rnn" / "aggregates.tsv").exists()
    assert (pipeline / "report" / "improvement_gm.tsv").exists()
    assert (pipeline / "report" / "improvement_m.tsv").exists()


def test_report_tables_hold_what_they_report(pipeline):
    rnn, arnn = (evaluation.read_scores(pipeline / stage / "scores.tsv") for stage in ("eval_rnn", "eval_arnn"))
    for path, records in ((pipeline / "eval_rnn" / "aggregates.tsv", rnn),
                          (pipeline / "eval_arnn" / "aggregates.tsv", arnn),
                          (pipeline / "report" / "aggregates_rnn.tsv", rnn),
                          (pipeline / "report" / "aggregates_arnn.tsv", arnn)):
        expected = [((m, name), dataclasses.astuple(stats))
                    for m, per_score in evaluation.aggregate_by_length(records).items()
                    for name, stats in per_score.items()]
        assert list(read_aggregates(path).items()) == expected, path
    report = evaluation.improvement_rate(arnn, rnn)  # NaN marks a cell whose every baseline was zero
    np.testing.assert_equal(list(read_improvement_gm(pipeline / "report" / "improvement_gm.tsv").items()),
                            list(report.per_gm.items()))
    np.testing.assert_equal(list(read_improvement_m(pipeline / "report" / "improvement_m.tsv").items()),
                            list(report.per_m.items()))


def test_stages_write_what_corpus_build_gives(pipeline, tmp_path):
    trips = corpus.load_and_terminate(corpus.read_trajectory_rows(pipeline / "synth" / "trips.tsv"))
    dataset, vocab, lookup = corpus.build(trips, radius=135.0, fractions=(0.7, 0.15, 0.15), seed=1)
    cmap, _ = corpus.discretize_split(trips, radius=135.0, fractions=(0.7, 0.15, 0.15), seed=1)
    save_cellmap(tmp_path / "cellmap.tsv", cmap)
    corpus.save_sequences(tmp_path / "sequences.tsv", dataset)
    corpus.save_accumulation(tmp_path / "accumulation.tsv", lookup.series)
    for stage, name in (("disc", "cellmap.tsv"), ("disc", "sequences.tsv"), ("acc", "accumulation.tsv")):
        assert (pipeline / stage / name).read_bytes() == (tmp_path / name).read_bytes(), name
    assert corpus.train_vocab(corpus.load_sequences(pipeline / "disc" / "sequences.tsv")) == vocab


def assert_manifest(out, command):
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["package"] == "cellseq"
    assert manifest["command"] == manifest["params"]["command"] == command
    assert "config_hash" in manifest
    assert manifest["outputs"] and all((out / name).is_file() for name in manifest["outputs"])


def test_manifests_written_everywhere(pipeline):
    for stage, command in (("synth", "synth"), ("disc", "discretize"), ("acc", "accumulate"), ("rnn", "train"),
                           ("arnn", "train"), ("eval_rnn", "evaluate"), ("eval_arnn", "evaluate"),
                           ("report", "report")):
        assert_manifest(pipeline / stage, command)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two CPUs")
@pytest.mark.parametrize("kind", ["rnn", "arnn"])
def test_checkpoint_bytes_do_not_depend_on_blas_threads(pipeline, tmp_path, kind):
    # one epoch at --batch-size 32 and d = 16, a setting the README states is
    # byte-stable, in two child processes under 1 and 2 OpenBLAS threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    cmd = [sys.executable, "-m", "cellseq.cli", "train", "--sequences", str(pipeline / "disc" / "sequences.tsv"),
           "--accumulation", str(pipeline / "acc" / "accumulation.tsv"), "--model", kind,
           "--d-e", "16", "--d-h", "16", "--epochs", "1", "--batch-size", "32", "--seed", "2"]
    checkpoints = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        result = subprocess.run(cmd + ["--out", str(tmp_path / threads)], env=env, capture_output=True, text=True,
                                timeout=300)
        assert result.returncode == 0, result.stderr
        manifest = json.loads((tmp_path / threads / "manifest.json").read_text())
        assert manifest["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == threads
        checkpoints.append((tmp_path / threads / "model.ckpt").read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_evaluate_manifest_records_seed_mixing(pipeline):
    manifest = json.loads((pipeline / "eval_rnn" / "manifest.json").read_text())
    assert "blake2b" in manifest["seed_mixing"] and "splitmix64" in manifest["seed_mixing"]
    assert "diagnostics" in manifest


def test_evaluate_manifest_counts_distinct_candidates(pipeline):
    for name in ("eval_rnn", "eval_arnn"):
        diag = json.loads((pipeline / name / "manifest.json").read_text())["diagnostics"]
        tasks = len((pipeline / name / "scores.tsv").read_text().splitlines()) - 1
        assert tasks > 0
        assert diag["candidates"] == 3 * tasks  # --k 3
        assert tasks <= diag["distinct_candidates"] <= diag["candidates"]
        assert diag["alignment_fallbacks"] == 0


def test_evaluate_manifest_times_generation_and_scoring(pipeline, tmp_path):
    acc = ["--accumulation", str(pipeline / "acc" / "accumulation.tsv")]
    for name, extra in (("eval_rnn", []), ("eval_arnn", acc)):
        timings = json.loads((pipeline / name / "manifest.json").read_text())["timings"]
        assert set(timings) == {"generate_s", "score_s"}
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
        # a re-run times differently but writes the same scores
        out = tmp_path / name
        ckpt = pipeline / name.replace("eval_", "") / "model.ckpt"
        assert main(["evaluate", "--ckpt", str(ckpt), "--sequences", str(pipeline / "disc" / "sequences.tsv"),
                     "--split", "test", *extra, "--k", "3", "--limit", "10", "--seed", "9", "--out", str(out)]) == 0
        assert (out / "scores.tsv").read_bytes() == (pipeline / name / "scores.tsv").read_bytes()
        again = json.loads((out / "manifest.json").read_text())
        assert again["diagnostics"] == json.loads((pipeline / name / "manifest.json").read_text())["diagnostics"]


def test_evaluate_without_tasks_lists_only_the_score_file(pipeline, tmp_path):
    # no test sequence is long enough for g = 50, so there are no aggregates to write
    out = tmp_path / "e"
    assert main(["evaluate", "--ckpt", str(pipeline / "rnn" / "model.ckpt"),
                 "--sequences", str(pipeline / "disc" / "sequences.tsv"), "--g-policy", "50", "--k", "2",
                 "--out", str(out)]) == 0
    assert len((out / "scores.tsv").read_text().splitlines()) == 1
    assert json.loads((out / "manifest.json").read_text())["outputs"] == ["scores.tsv"]


def test_evaluate_counts_sequences_without_a_listed_g(pipeline, tmp_path, capsys):
    # every test sequence with m >= 2 is too short for g = 50, and each is counted
    records = corpus.load_sequences(pipeline / "disc" / "sequences.tsv").test
    splittable = sum(rec.m >= 2 for rec in records)
    assert splittable > 0
    out = tmp_path / "e"
    assert main(["evaluate", "--ckpt", str(pipeline / "rnn" / "model.ckpt"),
                 "--sequences", str(pipeline / "disc" / "sequences.tsv"), "--g-policy", "50", "--k", "2",
                 "--out", str(out)]) == 0
    diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diagnostics["skipped_no_g"] == splittable
    assert diagnostics["skipped_short"] + diagnostics["skipped_unknown_cell"] + splittable == len(records)
    assert f"{splittable} without a listed g" in capsys.readouterr().out


# sha256 of the front-half files of the golden run below. cellmap.tsv and
# accumulation.tsv were recorded before clustering, discretization and
# accumulation were vectorized; trips.tsv and sequences.tsv when their line 1
# took a row count (the lines after it are unchanged)
FRONT_HALF_SHA256 = {
    "synth/trips.tsv": "fdd6c4017cb04c398e239d3aa1ae7b7ce7a4f36da256f49aa1a744b32c0456e3",
    "disc/cellmap.tsv": "51e086d5afaf99537290a1f79aec146e5d68b87022822101ada9b9b629890e35",
    "disc/sequences.tsv": "de6d1ca19f5f4b88e885c971fde75f0cee92f32515353d99556c506d5d7fd4e3",
    "acc/accumulation.tsv": "9511051d98037fc14e4db4e8276e9dde7aa3210b6a5257683b67b172a90a6124",
}


def test_front_half_outputs_match_golden_hashes(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "synth"), "--rows", "3", "--cols", "4", "--trips", "120",
                 "--horizon-min", "120", "--seed", "11"]) == 0
    assert main(["discretize", "--in", str(tmp_path / "synth" / "trips.tsv"), "--out", str(tmp_path / "disc"),
                 "--radius", "135", "--seed", "3"]) == 0
    assert main(["accumulate", "--trips", str(tmp_path / "synth" / "trips.tsv"),
                 "--cellmap", str(tmp_path / "disc" / "cellmap.tsv"),
                 "--sequences", str(tmp_path / "disc" / "sequences.tsv"), "--out", str(tmp_path / "acc")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in FRONT_HALF_SHA256}
    assert digests == FRONT_HALF_SHA256


def test_score_file_has_expected_header(pipeline):
    header, *rows = (pipeline / "eval_rnn" / "scores.tsv").read_text().split("\n")
    assert header == f"scores-v1\trows={len(rows) - 1}" and rows[-1] == ""


def test_train_is_byte_reproducible(pipeline, tmp_path):
    outs = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        assert main(["train", "--sequences", str(pipeline / "disc" / "sequences.tsv"),
                     "--model", "rnn", "--d-e", "6", "--d-h", "6", "--lr", "3e-3",
                     "--epochs", "1", "--seed", "3", "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "model.ckpt").read_bytes() == (outs[1] / "model.ckpt").read_bytes()


def test_evaluate_is_byte_reproducible(pipeline, tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        assert main(["evaluate", "--ckpt", str(pipeline / "rnn" / "model.ckpt"),
                     "--sequences", str(pipeline / "disc" / "sequences.tsv"), "--split", "test",
                     "--k", "2", "--limit", "6", "--seed", "31", "--out", str(out)]) == 0
    assert (out1 / "scores.tsv").read_bytes() == (out2 / "scores.tsv").read_bytes()


def test_generate_command(pipeline, capsys):
    assert main(["generate", "--ckpt", str(pipeline / "rnn" / "model.ckpt"),
                 "--prefix", "", "--n", "3", "--max-len", "20", "--seed", "4"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3
    model, _ = models.load_model(pipeline / "rnn" / "model.ckpt")
    for i, line in enumerate(out):
        assert line.startswith("#start")
        ids = sample_oracle(model, [START], evaluation.derive_seed(4, "generate", 0, i), max_len=20)
        assert line == " ".join(str(t) for t in [START, *model.vocab.decode(list(ids))])


def test_config_file_overrides_flags(pipeline, tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[generate]\nn = 2\n")
    assert main(["--config", str(cfg), "generate",
                 "--ckpt", str(pipeline / "rnn" / "model.ckpt"),
                 "--prefix", "", "--n", "7", "--max-len", "20", "--seed", "4"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2  # config wins over the flag


def test_one_train_run_writes_one_config_hash(pipeline):
    for name in ("rnn", "arnn"):
        manifest = json.loads((pipeline / name / "manifest.json").read_text())
        _, meta = models.load_model(pipeline / name / "model.ckpt")
        assert meta["config_hash"] == manifest["config_hash"]


def test_config_hash_follows_input_bytes_not_paths(pipeline, tmp_path):
    # byte-identical inputs in two directories give equal checkpoints; a
    # changed file at the same path gives another hash; params keep the paths
    ckpts = []
    for name in ("a", "b"):
        seqs = tmp_path / name / "sequences.tsv"
        seqs.parent.mkdir()
        seqs.write_bytes((pipeline / "disc" / "sequences.tsv").read_bytes())
        assert main(["train", "--sequences", str(seqs), "--d-e", "4", "--d-h", "4", "--epochs", "1",
                     "--seed", "3", "--out", str(tmp_path / name / "out")]) == 0
        ckpts.append((tmp_path / name / "out" / "model.ckpt").read_bytes())
    assert ckpts[0] == ckpts[1]
    scores, manifests = tmp_path / "scores.tsv", []
    for source in ("eval_rnn", "eval_arnn"):
        scores.write_bytes((pipeline / source / "scores.tsv").read_bytes())
        assert main(["report", "--rnn", str(scores), "--out", str(tmp_path / source)]) == 0
        manifests.append(json.loads((tmp_path / source / "manifest.json").read_text()))
    assert manifests[0]["config_hash"] != manifests[1]["config_hash"]
    assert manifests[0]["params"]["rnn"] == manifests[1]["params"]["rnn"] == str(scores)


def test_train_records_gradient_norm_per_epoch(pipeline):
    for name in ("rnn", "arnn"):
        manifest = json.loads((pipeline / name / "manifest.json").read_text())
        _, meta = models.load_model(pipeline / name / "model.ckpt")
        assert len(meta["grad_norm_curve"]) == len(meta["loss_curve"]) == 2
        assert all(norm > 0.0 for norm in meta["grad_norm_curve"])
        assert manifest["grad_norm_curve"] == meta["grad_norm_curve"]
        # clip events per epoch in the manifest; the checkpoint meta keeps their total
        assert len(manifest["epoch_clip_events"]) == 2
        assert sum(manifest["epoch_clip_events"]) == meta["clip_events"]
        assert "epoch_clip_events" not in meta


def test_train_manifest_times_each_epoch(pipeline):
    # wall time goes to the manifest only: checkpoint meta stays byte-stable
    # (test_train_is_byte_reproducible)
    for name in ("rnn", "arnn"):
        manifest = json.loads((pipeline / name / "manifest.json").read_text())
        _, meta = models.load_model(pipeline / name / "model.ckpt")
        assert len(manifest["epoch_seconds"]) == len(meta["loss_curve"]) == 2
        assert all(s > 0.0 for s in manifest["epoch_seconds"])
        assert "epoch_seconds" not in meta


def test_manifests_record_the_environment(pipeline, monkeypatch):
    manifest = json.loads((pipeline / "rnn" / "manifest.json").read_text())
    env = manifest["environment"]
    assert set(env) == {"python", "numpy", "cellseq", "blas", "blas_threads"}
    assert env["python"].count(".") == 2 and env["numpy"] and env["cellseq"] == manifest["version"]
    assert set(env["blas"]) == {"name", "version"}
    assert set(env["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
    _, meta = models.load_model(pipeline / "rnn" / "model.ckpt")
    assert "environment" not in meta
    # the thread settings as the process has them, null where unset
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert cli._environment()["blas_threads"] == {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None}


@pytest.mark.parametrize("flags, message", [(["--clip-norm", "-1"], "clip norm must be > 0, got -1.0"),
                                            (["--clip-norm", "0"], "clip norm must be > 0, got 0.0"),
                                            (["--epochs", "0"], "epochs must be >= 1, got 0")])
def test_train_rejects_bad_clip_norm_and_epochs(pipeline, tmp_path, capsys, flags, message):
    out = tmp_path / "t"
    assert main(["train", "--sequences", str(pipeline / "disc" / "sequences.tsv"), "--model", "rnn",
                 "--d-e", "4", "--d-h", "4", "--lr", "0.05", *flags, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "model.ckpt").exists() and not (out / "manifest.json").exists()


@pytest.mark.parametrize("lr", ["nan", "inf", "0", "-1"])
def test_train_rejects_bad_learning_rate(pipeline, tmp_path, capsys, lr):
    out = tmp_path / "t"
    assert main(["train", "--sequences", str(pipeline / "disc" / "sequences.tsv"), "--model", "rnn",
                 "--d-e", "4", "--d-h", "4", "--lr", lr, "--out", str(out)]) == 1
    assert f"learning rate must be finite and > 0, got {float(lr)}" in capsys.readouterr().err
    assert not (out / "model.ckpt").exists()


def test_train_manifest_counts_skipped_validation_sequences(tmp_path):
    def rec(trip, *cells):
        return corpus.SequenceRecord(trip, 0.0, (START, *cells, END))

    # cell 9, in the second validation sequence, is in no training sequence
    dataset = corpus.Dataset((rec("a", 1, 2, 3), rec("b", 3, 2)), (rec("c", 2, 3), rec("d", 2, 9, 3)), (rec("e", 1),))
    corpus.save_sequences(tmp_path / "sequences.tsv", dataset)
    assert main(["train", "--sequences", str(tmp_path / "sequences.tsv"), "--model", "rnn",
                 "--d-e", "4", "--d-h", "4", "--epochs", "1", "--out", str(tmp_path / "t")]) == 0
    manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
    assert (manifest["validation_sequences"], manifest["validation_skipped_unknown_cells"]) == (1, 1)


def test_config_values_take_the_flag_type(tmp_path):
    # --d-f defaults to None, so the type must come from the flag, not the default
    cfg = tmp_path / "run.ini"
    cfg.write_text("[train]\nd-f = 8\nd_a = 4\nlr = 0.01\nno-clip = yes\nmodel = arnn\n")
    parser = build_parser()
    args = parser.parse_args(["--config", str(cfg), "train", "--sequences", "s.tsv", "--out", "o"])
    _apply_config(args, parser)
    assert args.d_f == 8 and type(args.d_f) is int
    assert args.d_a == 4 and type(args.d_a) is int
    assert args.lr == 0.01
    assert args.no_clip is True
    assert args.model == "arnn"


@pytest.mark.parametrize("line, message", [("model = lstm", "not one of"), ("d-f = eight", "invalid literal"),
                                            ("func = x", "unknown config key"), ("bogus = 1", "unknown config key")])
def test_config_values_rejected(tmp_path, line, message):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[train]\n{line}\n")
    parser = build_parser()
    args = parser.parse_args(["--config", str(cfg), "train", "--sequences", "s.tsv", "--out", "o"])
    with pytest.raises(ValueError, match=message):
        _apply_config(args, parser)


S, I, F = None, int, float  # the argparse type of a flag: kept as a string, int, float
KINDS = ("rnn", "arnn")
# dest: (option strings, default, type, choices, required), per subcommand
FLAGS = {
    None: {"config": (("--config",), None, S, None, False), "debug": (("--debug",), False, S, None, False)},
    "synth": {
        "out": (("--out",), None, S, None, True), "rows": (("--rows",), 3, I, None, False),
        "cols": (("--cols",), 8, I, None, False), "spacing": (("--spacing",), 300.0, F, None, False),
        "trips": (("--trips",), 2000, I, None, False), "horizon_min": (("--horizon-min",), 720, I, None, False),
        "block_min": (("--block-min",), 30, I, None, False), "epsilon": (("--epsilon",), 0.1, F, None, False),
        "free_speed": (("--free-speed",), 10.0, F, None, False),
        "congested_speed": (("--congested-speed",), 4.0, F, None, False), "seed": (("--seed",), 0, I, None, False),
    },
    "discretize": {
        "infile": (("--in",), None, S, None, True), "out": (("--out",), None, S, None, True),
        "radius": (("--radius",), 300.0, F, None, False), "split": (("--split",), "0.8,0.1,0.1", S, None, False),
        "seed": (("--seed",), 0, I, None, False),
    },
    "accumulate": {
        "trips": (("--trips",), None, S, None, True), "cellmap": (("--cellmap",), None, S, None, True),
        "sequences": (("--sequences",), None, S, None, True), "out": (("--out",), None, S, None, True),
    },
    "train": {
        "sequences": (("--sequences",), None, S, None, True),
        "accumulation": (("--accumulation",), None, S, None, False),
        "model": (("--model",), "rnn", S, KINDS, False), "d_e": (("--d-e",), 16, I, None, False),
        "d_h": (("--d-h",), 16, I, None, False), "d_f": (("--d-f",), None, I, None, False),
        "d_a": (("--d-a",), None, I, None, False), "lr": (("--lr",), 1e-3, F, None, False),
        "epochs": (("--epochs",), 10, I, None, False), "batch_size": (("--batch-size",), 1, I, None, False),
        "clip_norm": (("--clip-norm",), 5.0, F, None, False), "no_clip": (("--no-clip",), False, S, None, False),
        "seed": (("--seed",), 0, I, None, False), "out": (("--out",), None, S, None, True),
    },
    "generate": {
        "ckpt": (("--ckpt",), None, S, None, True), "prefix": (("--prefix",), "", S, None, False),
        "n": (("--n",), 5, I, None, False), "max_len": (("--max-len",), 40, I, None, False),
        "accumulation": (("--accumulation",), None, S, None, False),
        "start_time": (("--start-time",), None, F, None, False), "seed": (("--seed",), 0, I, None, False),
    },
    "evaluate": {
        "ckpt": (("--ckpt", "--model"), None, S, None, True), "sequences": (("--sequences",), None, S, None, True),
        "split": (("--split",), "test", S, ("train", "validation", "test"), False),
        "accumulation": (("--accumulation",), None, S, None, False), "k": (("--k",), 100, I, None, False),
        "g_policy": (("--g-policy",), "all", S, None, False), "limit": (("--limit",), 0, I, None, False),
        "seed": (("--seed",), 0, I, None, False), "out": (("--out",), None, S, None, True),
    },
    "hypersearch": {
        "sequences": (("--sequences",), None, S, None, True),
        "accumulation": (("--accumulation",), None, S, None, False),
        "model": (("--model",), "rnn", S, KINDS, False), "trials": (("--trials",), 12, I, None, False),
        "epochs": (("--epochs",), 10, I, None, False), "lr_range": (("--lr-range",), "1e-5,1e-2", S, None, False),
        "d_e_range": (("--d-e-range",), "8,64", S, None, False),
        "d_h_range": (("--d-h-range",), "8,64", S, None, False),
        "limit": (("--limit",), 0, I, None, False), "seed": (("--seed",), 0, I, None, False),
        "out": (("--out",), None, S, None, True),
    },
    "report": {
        "arnn": (("--arnn",), None, S, None, False), "rnn": (("--rnn",), None, S, None, False),
        "out": (("--out",), None, S, None, True),
    },
}


def test_every_subcommand_keeps_its_flags(capsys):
    def flags(p):
        return {a.dest: (tuple(a.option_strings), a.default, a.type, None if a.choices is None else tuple(a.choices),
                         a.required) for a in p._actions if a.dest != "help" and a.option_strings}

    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {None: flags(parser), **{name: flags(p) for name, p in subparsers.choices.items()}} == FLAGS
    for name in subparsers.choices:
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert f"usage: cellseq {name}" in capsys.readouterr().out


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_stage_failure_exits_1(tmp_path, capsys):
    rc = main(["discretize", "--in", str(tmp_path / "missing.tsv"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("stage, flags", [("evaluate", ["--ckpt", "model.ckpt"]), ("hypersearch", [])])
def test_negative_limit_rejected_before_any_work(tmp_path, capsys, stage, flags):
    # neither input file exists: the flag is checked before anything is read
    out = tmp_path / "o"
    assert main([stage, *flags, "--sequences", str(tmp_path / "s.tsv"), "--limit", "-5", "--out", str(out)]) == 1
    assert "error: --limit must be >= 0, got -5" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_repeated_trip_id_fails_evaluate_without_a_manifest(pipeline, tmp_path, capsys):
    lines = (pipeline / "disc" / "sequences.tsv").read_text().splitlines()
    seqs = tmp_path / "sequences.tsv"
    header = lines[0].replace(f"rows={len(lines) - 1}", f"rows={len(lines)}")  # counts the added row
    seqs.write_text("\n".join([header, *lines[1:], lines[1].replace("\ttrain\t", "\ttest\t")]) + "\n")
    out = tmp_path / "e"
    assert main(["evaluate", "--ckpt", str(pipeline / "rnn" / "model.ckpt"), "--sequences", str(seqs),
                 "--k", "2", "--out", str(out)]) == 1
    assert f"{seqs}:{len(lines) + 1}: repeated trip_id" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_stage_failure_reraises_under_debug(tmp_path, capsys):
    args = ["discretize", "--in", str(tmp_path / "missing.tsv"), "--out", str(tmp_path / "o")]
    with pytest.raises(FileNotFoundError):
        main(["--debug", *args])
    assert "error:" not in capsys.readouterr().err
    assert main(args) == 1


def test_debug_flag_is_not_a_run_parameter(pipeline, tmp_path):
    outs = []
    for flags in ([], ["--debug"]):
        out = tmp_path / f"eval{len(flags)}"
        assert main([*flags, "evaluate", "--ckpt", str(pipeline / "rnn" / "model.ckpt"),
                     "--sequences", str(pipeline / "disc" / "sequences.tsv"),
                     "--k", "2", "--limit", "3", "--seed", "9", "--out", str(out)]) == 0
        outs.append(json.loads((out / "manifest.json").read_text()))
    assert "debug" not in outs[1]["params"]
    assert outs[0]["config_hash"] == outs[1]["config_hash"]


def test_hypersearch_command(pipeline, tmp_path):
    out = tmp_path / "hs"
    rc = main(["hypersearch", "--sequences", str(pipeline / "disc" / "sequences.tsv"),
               "--model", "rnn", "--trials", "3", "--epochs", "1",
               "--lr-range", "1e-3,1e-1", "--d-e-range", "4,8", "--d-h-range", "4,8",
               "--limit", "30", "--seed", "0", "--out", str(out)])
    assert rc == 0
    history = (out / "history.tsv").read_text().splitlines()
    assert len(history) == 1 + 3  # line 1, three trials
    assert_manifest(out, "hypersearch")


def test_report_on_a_cut_score_file_fails_naming_file_and_line(pipeline, tmp_path, capsys):
    lines = (pipeline / "eval_rnn" / "scores.tsv").read_text().split("\n")
    cut = tmp_path / "scores.tsv"
    cut.write_text("\n".join(lines[:-2]) + "\n")  # the last row is gone
    assert main(["report", "--rnn", str(cut), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == (f"error: {cut}:{len(lines) - 2}: line 1 counts {len(lines) - 2} rows "
                                       f"after it, the file holds {len(lines) - 3}\n")


@pytest.mark.parametrize("command", ["discretize", "accumulate"])
@pytest.mark.parametrize(
    "points, line, message",
    [([("a", 0.0), ("b", 60.0), ("a", 120.0)], 4, "trip id 'a' appears in separate blocks"),
     ([("a", 60.0), ("a", 0.0), ("b", 120.0)], 3, "time decreases within 'a'")],
    ids=["id-in-two-blocks", "time-decreases"],
)
def test_unsorted_trips_fail_naming_file_and_line(pipeline, tmp_path, capsys, command, points, line, message):
    trips = tmp_path / "trips.tsv"  # one point per row, from line 2 on
    corpus.write_trajectories(trips, [RawTrajectory(trip, np.array([[0.0, 0.0, t]])) for trip, t in points])
    args = {"discretize": ["--in", str(trips)],
            "accumulate": ["--trips", str(trips), "--cellmap", str(pipeline / "disc" / "cellmap.tsv"),
                           "--sequences", str(pipeline / "disc" / "sequences.tsv")]}[command]
    assert main([command, *args, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {trips}:{line}: input not sorted: {message}\n"
