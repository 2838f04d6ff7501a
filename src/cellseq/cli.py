"""Operator entry point: one subcommand per pipeline stage.

Every command writes a ``manifest.json`` beside its outputs with the
resolved parameters, seeds, and a config hash, so any stage can be re-run
identically, and the software environment it ran in. A ``--config`` INI file (section named after the subcommand)
overrides command-line flags.
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, corpus, evaluation, hypersearch, models, synthworld
from ._files import atomic_open
from .cellspace import load_cellmap, save_cellmap
from .corpus import (
    TrafficLookup,
    load_accumulation,
    load_and_terminate,
    load_sequences,
    read_trajectory_rows,
    save_accumulation,
    save_sequences,
    write_trajectories,
)
from .models import ModelDims, load_model, save_model
from .tokens import START


def _run_params(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config", "debug")}


def _config_hash(args: argparse.Namespace) -> str:
    """The one hash of a run's parameters, in its manifest and checkpoint."""
    # the output directory is where results land, not part of the computation
    hashed = {k: v for k, v in _run_params(args).items() if k != "out"}
    blob = json.dumps(hashed, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _environment() -> dict:
    """What a run's bytes may depend on besides its parameters: the Python,
    numpy and cellseq versions, the BLAS numpy was built with, and the BLAS
    thread settings (null where unset). Manifests only; checkpoint meta
    leaves it out, so that checkpoints stay byte-stable across machines."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cellseq": __version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _write_manifest(outdir: Path, command: str, args: argparse.Namespace, extra: dict | None = None) -> None:
    manifest = {
        "package": "cellseq",
        "version": __version__,
        "command": command,
        "params": _run_params(args),
        "config_hash": _config_hash(args),
        "environment": _environment(),
    }
    if extra:
        manifest.update(extra)
    with atomic_open(outdir / "manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2, default=str) + "\n")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_fractions(text: str) -> tuple[float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError("expected three comma-separated fractions")
    return (parts[0], parts[1], parts[2])


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    out = _outdir(args)
    world = synthworld.generate_world(
        rows=args.rows,
        cols=args.cols,
        spacing=args.spacing,
        seed=args.seed,
        horizon_minutes=args.horizon_min,
        block_minutes=args.block_min,
        epsilon=args.epsilon,
        free_speed=args.free_speed,
        congested_speed=args.congested_speed,
    )
    trips = synthworld.simulate_trips(world, args.trips, seed=args.seed)
    synthworld.save_world(out / "world.json", world)
    write_trajectories(out / "trips.tsv", trips)
    _write_manifest(out, "synth", args, {"outputs": ["world.json", "trips.tsv"], "n_trips": len(trips)})
    print(f"wrote {len(trips)} trips to {out / 'trips.tsv'}")
    return 0


def cmd_discretize(args) -> int:
    out = _outdir(args)
    rows = read_trajectory_rows(args.infile)
    trips = load_and_terminate(rows)
    cmap, dataset = corpus.discretize_split(trips, args.radius, _parse_fractions(args.split), args.seed)
    save_cellmap(out / "cellmap.tsv", cmap)
    save_sequences(out / "sequences.tsv", dataset)
    _write_manifest(
        out,
        "discretize",
        args,
        {
            "outputs": ["cellmap.tsv", "sequences.tsv"],
            "n_cells": cmap.n_cells,
            "split_sizes": dataset.sizes(),
        },
    )
    print(f"{cmap.n_cells} cells; splits {dataset.sizes()}")
    return 0


def cmd_accumulate(args) -> int:
    out = _outdir(args)
    rows = read_trajectory_rows(args.trips)
    trips = load_and_terminate(rows)
    cmap, dataset = load_cellmap(args.cellmap), load_sequences(args.sequences)
    normalized = corpus.normalized_accumulation(trips, cmap, dataset)
    save_accumulation(out / "accumulation.tsv", normalized)
    _write_manifest(
        out,
        "accumulate",
        args,
        {
            "outputs": ["accumulation.tsv"],
            "maxima_source": "training split",
            "clamped_entries": normalized.clamped,
        },
    )
    print(f"accumulation over {normalized.n_minutes} minutes, {normalized.clamped} clamped entries")
    return 0


def _traffic_lookup(args, kind: str, cells) -> TrafficLookup | None:
    if kind != "arnn":
        return None
    if not args.accumulation:
        raise ValueError("--accumulation is required for the arnn model")
    return TrafficLookup(load_accumulation(args.accumulation), cells)


def cmd_train(args) -> int:
    out = _outdir(args)
    dataset = load_sequences(args.sequences)
    vocab = corpus.train_vocab(dataset)
    lookup = _traffic_lookup(args, args.model, vocab.cells)
    dims = ModelDims(d_e=args.d_e, d_h=args.d_h, d_f=args.d_f, d_a=args.d_a)
    model = models.KINDS[args.model].init(vocab, dims, seed=args.seed)
    train_examples = models.make_examples(dataset.train, vocab, lookup)
    clip = None if args.no_clip else args.clip_norm
    result = models.train(
        model, train_examples, lr=args.lr, epochs=args.epochs, seed=args.seed, clip_norm=clip,
        batch_size=args.batch_size,
    )
    val_examples = models.make_examples(dataset.validation, vocab, lookup)
    val_loss = models.mean_loss(model, val_examples) if val_examples else float("nan")
    meta = {
        "epochs": args.epochs,
        "loss_curve": result.epoch_losses,
        "grad_norm_curve": result.epoch_grad_norms,
        "clip_events": result.clip_events,
        "validation_loss": val_loss,
        "config_hash": _config_hash(args),
    }
    save_model(out / "model.ckpt", model, meta)
    _write_manifest(out, "train", args, {"outputs": ["model.ckpt"], "final_loss": result.epoch_losses[-1],
                                         "grad_norm_curve": result.epoch_grad_norms,
                                         "epoch_clip_events": result.epoch_clip_events,
                                         "epoch_seconds": result.epoch_seconds,
                                         "validation_loss": val_loss, "validation_sequences": len(val_examples),
                                         "validation_skipped_unknown_cells":
                                             len(dataset.validation) - len(val_examples)})
    for epoch, loss in enumerate(result.epoch_losses):
        print(f"epoch {epoch}: mean step loss {loss:.4f}")
    print(f"validation loss {val_loss:.4f}")
    return 0


def cmd_generate(args) -> int:
    model, _ = load_model(args.ckpt)
    prefix = [START] + [int(c) for c in args.prefix.split(",") if c]
    if model.kind == "arnn" and args.start_time is None:
        raise ValueError("--start-time is required for the arnn model")
    lookup = _traffic_lookup(args, model.kind, model.vocab.cells)
    traffic = lookup.window(args.start_time) if lookup is not None else None
    seeds = [evaluation.derive_seed(args.seed, "generate", 0, i) for i in range(args.n)]
    for res in models.generate_batch(model, prefix, seeds, args.max_len, traffic):
        print(" ".join(str(t) for t in res.tokens))
    return 0


def cmd_evaluate(args) -> int:
    out = _outdir(args)
    model, _ = load_model(args.ckpt)
    dataset = load_sequences(args.sequences)
    records = list(getattr(dataset, args.split))
    if args.limit and args.limit > 0:
        records = records[: args.limit]
    lookup = _traffic_lookup(args, model.kind, model.vocab.cells)
    g_policy = "all" if args.g_policy == "all" else [int(g) for g in args.g_policy.split(",")]
    score_records, diag = evaluation.evaluate_records(
        records, model, lookup, master_seed=args.seed, k=args.k, g_policy=g_policy
    )
    evaluation.write_scores(out / "scores.tsv", score_records)
    if score_records:
        evaluation.write_aggregates(out / "aggregates.tsv", evaluation.aggregate_by_length(score_records))
    _write_manifest(
        out,
        "evaluate",
        args,
        {
            "outputs": ["scores.tsv", "aggregates.tsv"],
            "seed_mixing": evaluation.SEED_MIXING,
            "diagnostics": {
                "skipped_short": diag.skipped_short,
                "skipped_unknown_cell": diag.skipped_unknown_cell,
                "unterminated_candidates": diag.unterminated,
                "candidates": diag.candidates,
                "distinct_candidates": diag.distinct_candidates,
                "alignment_fallbacks": diag.alignment_fallbacks,
            },
            "timings": {"generate_s": diag.generate_s, "score_s": diag.score_s},
        },
    )
    print(f"scored {len(score_records)} tasks "
          f"({diag.skipped_short} short, {diag.skipped_unknown_cell} unknown-cell sequences skipped)")
    return 0


def cmd_hypersearch(args) -> int:
    out = _outdir(args)
    dataset = load_sequences(args.sequences)
    vocab = corpus.train_vocab(dataset)
    lookup = _traffic_lookup(args, args.model, vocab.cells)
    train_records = dataset.train[: args.limit] if args.limit else dataset.train
    val_records = dataset.validation[: args.limit] if args.limit else dataset.validation
    train_examples = models.make_examples(train_records, vocab, lookup)
    val_examples = models.make_examples(val_records, vocab, lookup)
    if not val_examples:
        raise ValueError("validation split is empty")
    space = hypersearch.SearchSpace(
        learning_rate=tuple(float(v) for v in args.lr_range.split(",")),
        d_e=tuple(int(v) for v in args.d_e_range.split(",")),
        d_h=tuple(int(v) for v in args.d_h_range.split(",")),
    )
    data = hypersearch.TrainValData(vocab=vocab, train=tuple(train_examples), validation=tuple(val_examples))
    result = hypersearch.search(
        space, args.model, data, budget_trials=args.trials, seed=args.seed, trial_epochs=args.epochs
    )
    hypersearch.write_history(out / "history.tsv", result)
    _write_manifest(out, "hypersearch", args, {"outputs": ["history.tsv"],
                                               "best": vars(result.best.config),
                                               "best_objective": result.best.objective})
    best = result.best
    print(f"best trial {best.index}: lr={best.config.learning_rate:.3e} "
          f"d_e={best.config.d_e} d_h={best.config.d_h} objective={best.objective:.4f}")
    return 0


def cmd_report(args) -> int:
    out = _outdir(args)
    outputs = []
    arnn_records = evaluation.read_scores(args.arnn) if args.arnn else None
    rnn_records = evaluation.read_scores(args.rnn) if args.rnn else None
    if arnn_records is None and rnn_records is None:
        raise ValueError("at least one of --arnn / --rnn score files is required")
    for name, records in (("arnn", arnn_records), ("rnn", rnn_records)):
        if records:
            path = out / f"aggregates_{name}.tsv"
            evaluation.write_aggregates(path, evaluation.aggregate_by_length(records))
            outputs.append(path.name)
    if arnn_records and rnn_records:
        report = evaluation.improvement_rate(arnn_records, rnn_records)
        evaluation.write_improvement(out / "improvement_gm.tsv", out / "improvement_m.tsv", report)
        outputs += ["improvement_gm.tsv", "improvement_m.tsv"]
    _write_manifest(out, "report", args, {"outputs": outputs})
    print(f"wrote {', '.join(outputs)}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cellseq", description=__doc__)
    parser.add_argument("--config", help="INI file; its [subcommand] section overrides flags")
    parser.add_argument("--debug", action="store_true", help="re-raise a failing stage's error with its traceback")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic two-corridor world and trips")
    p.add_argument("--out", required=True)
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--cols", type=int, default=8)
    p.add_argument("--spacing", type=float, default=300.0)
    p.add_argument("--trips", type=int, default=2000)
    p.add_argument("--horizon-min", type=int, default=720)
    p.add_argument("--block-min", type=int, default=30)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--free-speed", type=float, default=10.0)
    p.add_argument("--congested-speed", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("discretize", help="cluster points into cells and write cell sequences")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--radius", type=float, default=300.0)
    p.add_argument("--split", default="0.8,0.1,0.1")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_discretize)

    p = sub.add_parser("accumulate", help="vehicle accumulation series, normalized by training maxima")
    p.add_argument("--trips", required=True)
    p.add_argument("--cellmap", required=True)
    p.add_argument("--sequences", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_accumulate)

    p = sub.add_parser("train", help="train the baseline or attention generator")
    p.add_argument("--sequences", required=True)
    p.add_argument("--accumulation")
    p.add_argument("--model", choices=tuple(models.KINDS), default="rnn")
    p.add_argument("--d-e", type=int, default=16)
    p.add_argument("--d-h", type=int, default=16)
    p.add_argument("--d-f", type=int, default=None)
    p.add_argument("--d-a", type=int, default=None)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=1)
    p.add_argument("--clip-norm", type=float, default=5.0)
    p.add_argument("--no-clip", action="store_true", help="disable gradient clipping")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample continuations from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--prefix", default="", help="comma-separated cell ids after #start")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--max-len", type=int, default=40)
    p.add_argument("--accumulation")
    p.add_argument("--start-time", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="prefix-split evaluation with k candidates per task")
    p.add_argument("--ckpt", "--model", dest="ckpt", required=True, help="model checkpoint path")
    p.add_argument("--sequences", required=True)
    p.add_argument("--split", choices=("train", "validation", "test"), default="test")
    p.add_argument("--accumulation")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--g-policy", default="all", help='"all" or comma-separated g values')
    p.add_argument("--limit", type=int, default=0, help="cap the number of sequences (0 = all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("hypersearch", help="GP search over learning rate and layer dimensions")
    p.add_argument("--sequences", required=True)
    p.add_argument("--accumulation")
    p.add_argument("--model", choices=tuple(models.KINDS), default="rnn")
    p.add_argument("--trials", type=int, default=12)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr-range", default="1e-5,1e-2")
    p.add_argument("--d-e-range", default="8,64")
    p.add_argument("--d-h-range", default="8,64")
    p.add_argument("--limit", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hypersearch)

    p = sub.add_parser("report", help="aggregate score files and improvement-rate tables")
    p.add_argument("--arnn", help="score file from the attention model")
    p.add_argument("--rnn", help="score file from the baseline model")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Override flags from the INI section named after the subcommand, each
    value converted as its flag's own argparse action would convert it."""
    if not args.config:
        return
    ini = configparser.ConfigParser()
    if not ini.read(args.config):
        raise ValueError(f"cannot read config file {args.config!r}")
    if args.command not in ini:
        return
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in subparsers.choices[args.command]._actions}
    for key, value in ini[args.command].items():
        action = actions.get(key.replace("-", "_"))
        if action is None or action.dest == "help":
            raise ValueError(f"unknown config key {key!r} for command {args.command!r}")
        if action.nargs == 0:  # a flag such as --no-clip
            converted = ini[args.command].getboolean(key)
        else:
            converted = action.type(value) if action.type is not None else value
            if action.choices is not None and converted not in action.choices:
                raise ValueError(f"config key {key!r}: {value!r} is not one of {sorted(action.choices)}")
        setattr(args, action.dest, converted)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, parser)
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - surface stage failures as exit 1
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
