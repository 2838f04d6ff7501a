"""Operator entry point: one subcommand per pipeline stage.

Each stage returns the fields of its manifest, and ``main`` then writes a
``manifest.json`` beside the stage's outputs: those fields, the resolved
parameters, seeds and a config hash, so any stage can be re-run
identically, and the software environment it ran in. A stage that fails
writes no manifest. A ``--config`` INI file (section named after the
subcommand) overrides command-line flags.
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
from .cellspace import RawTrajectory, load_cellmap, save_cellmap
from .models import ModelDims, load_model, save_model
from .tokens import START


def _run_params(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config", "debug")}


# the destinations of the flags that name input files (synth's --trips is a count)
INPUT_FILES = ("infile", "trips", "cellmap", "sequences", "accumulation", "ckpt", "arnn", "rnn")


def _config_hash(args: argparse.Namespace) -> str:
    """The one hash of a run's parameters, in its manifest and checkpoint.
    An input file enters by the sha256 of its bytes, not by its path, so
    that equal inputs give equal hashes wherever they sit."""
    # the output directory is where results land, not part of the computation
    hashed = {k: hashlib.sha256(Path(v).read_bytes()).hexdigest() if k in INPUT_FILES and isinstance(v, str) else v
              for k, v in _run_params(args).items() if k != "out"}
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


def _peak_rss_mb() -> float | None:
    """The peak resident set of this process so far, in MB (null where the
    ``resource`` module is missing, as on Windows)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux, bytes on macOS
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 2)


def _write_manifest(args: argparse.Namespace, fields: dict) -> None:
    manifest = {
        "package": "cellseq",
        "version": __version__,
        "command": args.command,
        "params": _run_params(args),
        "config_hash": _config_hash(args),
        "environment": _environment(),
        "peak_rss_mb": _peak_rss_mb(),
        **fields,
    }
    with atomic_open(Path(args.out) / "manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2, default=str) + "\n")


def _parse_fractions(text: str) -> tuple[float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError("expected three comma-separated fractions")
    return (parts[0], parts[1], parts[2])


def _limit(args) -> int | None:
    """``--limit`` as the end of a slice, where 0 (every sequence) is None."""
    if args.limit < 0:
        raise ValueError(f"--limit must be >= 0, got {args.limit}")
    return args.limit or None


def _read_trips(path) -> list[RawTrajectory]:
    return corpus.load_and_terminate(corpus.read_trajectory_rows(path))


def _traffic_lookup(args, kind: str, cells) -> corpus.TrafficLookup | None:
    if kind != "arnn":
        return None
    if not args.accumulation:
        raise ValueError("--accumulation is required for the arnn model")
    return corpus.TrafficLookup(corpus.load_accumulation(args.accumulation), cells)


def _load_corpus(args):
    """The ``--sequences`` dataset, its training vocabulary, and a function
    from records to the ``--model``'s training examples (with traffic windows
    for arnn)."""
    dataset = corpus.load_sequences(args.sequences)
    vocab = corpus.train_vocab(dataset)
    lookup = _traffic_lookup(args, args.model, vocab.cells)
    return dataset, vocab, lambda records: models.make_examples(records, vocab, lookup)


# ---------------------------------------------------------------------------
# commands: each returns its manifest's fields, or None when it has no --out


def cmd_synth(args) -> dict:
    out = Path(args.out)
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
    corpus.write_trajectories(out / "trips.tsv", trips)
    print(f"wrote {len(trips)} trips to {out / 'trips.tsv'}")
    return {"outputs": ["world.json", "trips.tsv"], "n_trips": len(trips)}


def cmd_discretize(args) -> dict:
    out = Path(args.out)
    trips = _read_trips(args.infile)
    cmap, dataset = corpus.discretize_split(trips, args.radius, _parse_fractions(args.split), args.seed)
    save_cellmap(out / "cellmap.tsv", cmap)
    corpus.save_sequences(out / "sequences.tsv", dataset)
    print(f"{cmap.n_cells} cells; splits {dataset.sizes()}")
    return {"outputs": ["cellmap.tsv", "sequences.tsv"], "n_cells": cmap.n_cells, "split_sizes": dataset.sizes()}


def cmd_accumulate(args) -> dict:
    trips, cmap = _read_trips(args.trips), load_cellmap(args.cellmap)
    normalized = corpus.normalized_accumulation(trips, cmap, corpus.load_sequences(args.sequences))
    corpus.save_accumulation(Path(args.out) / "accumulation.tsv", normalized)
    print(f"accumulation over {normalized.n_minutes} minutes, {normalized.clamped} clamped entries")
    return {"outputs": ["accumulation.tsv"], "maxima_source": "training split",
            "clamped_entries": normalized.clamped}


def cmd_train(args) -> dict:
    dataset, vocab, examples = _load_corpus(args)
    dims = ModelDims(d_e=args.d_e, d_h=args.d_h, d_f=args.d_f, d_a=args.d_a)
    model = models.KINDS[args.model].init(vocab, dims, seed=args.seed)
    clip = None if args.no_clip else args.clip_norm
    result = models.train(
        model, examples(dataset.train), lr=args.lr, epochs=args.epochs, seed=args.seed, clip_norm=clip,
        batch_size=args.batch_size,
    )
    val_examples = examples(dataset.validation)
    val_loss = models.mean_loss(model, val_examples) if val_examples else float("nan")
    meta = {
        "epochs": args.epochs,
        "loss_curve": result.epoch_losses,
        "grad_norm_curve": result.epoch_grad_norms,
        "clip_events": result.clip_events,
        "validation_loss": val_loss,
        "config_hash": _config_hash(args),
    }
    save_model(Path(args.out) / "model.ckpt", model, meta)
    for epoch, loss in enumerate(result.epoch_losses):
        print(f"epoch {epoch}: mean step loss {loss:.4f}")
    print(f"validation loss {val_loss:.4f}")
    return {"outputs": ["model.ckpt"], "final_loss": result.epoch_losses[-1],
            "grad_norm_curve": result.epoch_grad_norms, "epoch_clip_events": result.epoch_clip_events,
            "epoch_seconds": result.epoch_seconds, "validation_loss": val_loss,
            "validation_sequences": len(val_examples),
            "validation_skipped_unknown_cells": len(dataset.validation) - len(val_examples)}


def cmd_generate(args) -> None:
    model, _ = load_model(args.ckpt)
    prefix = [START] + [int(c) for c in args.prefix.split(",") if c]
    if model.kind == "arnn" and args.start_time is None:
        raise ValueError("--start-time is required for the arnn model")
    lookup = _traffic_lookup(args, model.kind, model.vocab.cells)
    traffic = lookup.window(args.start_time) if lookup is not None else None
    seeds = [evaluation.derive_seed(args.seed, "generate", 0, i) for i in range(args.n)]
    for res in models.generate_batch(model, prefix, seeds, args.max_len, traffic):
        print(" ".join(str(t) for t in res.tokens))


def cmd_evaluate(args) -> dict:
    limit = _limit(args)
    model, _ = load_model(args.ckpt)
    records = list(getattr(corpus.load_sequences(args.sequences), args.split))[:limit]
    lookup = _traffic_lookup(args, model.kind, model.vocab.cells)
    g_policy = "all" if args.g_policy == "all" else [int(g) for g in args.g_policy.split(",")]
    score_records, diag = evaluation.evaluate_records(
        records, model, lookup, master_seed=args.seed, k=args.k, g_policy=g_policy
    )
    out = Path(args.out)
    evaluation.write_scores(out / "scores.tsv", score_records)
    if score_records:
        evaluation.write_aggregates(out / "aggregates.tsv", evaluation.aggregate_by_length(score_records))
    print(f"scored {len(score_records)} tasks "
          f"({diag.skipped_short} short, {diag.skipped_no_g} without a listed g, "
          f"{diag.skipped_unknown_cell} unknown-cell sequences skipped; {diag.skipped_at_cap} tasks whose prefix "
          f"fills the length cap skipped)")
    return {
        "outputs": ["scores.tsv", "aggregates.tsv"] if score_records else ["scores.tsv"],
        "seed_mixing": evaluation.SEED_MIXING,
        "diagnostics": {
            "skipped_short": diag.skipped_short,
            "skipped_no_g": diag.skipped_no_g,
            "skipped_at_cap": diag.skipped_at_cap,
            "skipped_unknown_cell": diag.skipped_unknown_cell,
            "unterminated_candidates": diag.unterminated,
            "candidates": diag.candidates,
            "distinct_candidates": diag.distinct_candidates,
            "alignment_fallbacks": diag.alignment_fallbacks,
        },
        "timings": {"generate_s": diag.generate_s, "score_s": diag.score_s},
    }


def cmd_hypersearch(args) -> dict:
    limit = _limit(args)
    dataset, vocab, examples = _load_corpus(args)
    data = hypersearch.TrainValData(vocab=vocab, train=tuple(examples(dataset.train[:limit])),
                                    validation=tuple(examples(dataset.validation[:limit])))
    if not data.validation:
        raise ValueError("validation split is empty")
    space = hypersearch.SearchSpace(
        learning_rate=tuple(float(v) for v in args.lr_range.split(",")),
        d_e=tuple(int(v) for v in args.d_e_range.split(",")),
        d_h=tuple(int(v) for v in args.d_h_range.split(",")),
    )
    result = hypersearch.search(
        space, args.model, data, budget_trials=args.trials, seed=args.seed, trial_epochs=args.epochs
    )
    hypersearch.write_history(Path(args.out) / "history.tsv", result)
    best = result.best
    print(f"best trial {best.index}: lr={best.config.learning_rate:.3e} "
          f"d_e={best.config.d_e} d_h={best.config.d_h} objective={best.objective:.4f}")
    return {"outputs": ["history.tsv"], "best": vars(best.config), "best_objective": best.objective}


def cmd_report(args) -> dict:
    out = Path(args.out)
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
    print(f"wrote {', '.join(outputs)}")
    return {"outputs": outputs}


# ---------------------------------------------------------------------------
# parser


def _flag(*names: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag that several subcommands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cellseq", description=__doc__)
    parser.add_argument("--config", help="INI file; its [subcommand] section overrides flags")
    parser.add_argument("--debug", action="store_true", help="re-raise a failing stage's error with its traceback")
    sub = parser.add_subparsers(dest="command", required=True)
    out, seed = _flag("--out", required=True), _flag("--seed", type=int, default=0)
    sequences, accumulation = _flag("--sequences", required=True), _flag("--accumulation")
    model = _flag("--model", choices=tuple(models.KINDS), default="rnn")

    def stage(func, help: str, *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p = sub.add_parser(func.__name__.removeprefix("cmd_"), help=help, parents=parents)
        p.set_defaults(func=func)
        return p

    p = stage(cmd_synth, "generate the synthetic two-corridor world and trips", out, seed)
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--cols", type=int, default=8)
    p.add_argument("--spacing", type=float, default=300.0)
    p.add_argument("--trips", type=int, default=2000)
    p.add_argument("--horizon-min", type=int, default=720)
    p.add_argument("--block-min", type=int, default=30)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--free-speed", type=float, default=10.0)
    p.add_argument("--congested-speed", type=float, default=4.0)

    p = stage(cmd_discretize, "cluster points into cells and write cell sequences", out, seed)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--radius", type=float, default=300.0)
    p.add_argument("--split", default="0.8,0.1,0.1")

    p = stage(cmd_accumulate, "vehicle accumulation series, normalized by training maxima", sequences, out)
    p.add_argument("--trips", required=True)
    p.add_argument("--cellmap", required=True)

    p = stage(cmd_train, "train the baseline or attention generator", sequences, accumulation, model, seed, out)
    p.add_argument("--d-e", type=int, default=16)
    p.add_argument("--d-h", type=int, default=16)
    p.add_argument("--d-f", type=int, default=None)
    p.add_argument("--d-a", type=int, default=None)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=1)
    p.add_argument("--clip-norm", type=float, default=5.0)
    p.add_argument("--no-clip", action="store_true", help="disable gradient clipping")

    p = stage(cmd_generate, "sample continuations from a checkpoint", accumulation, seed)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--prefix", default="", help="comma-separated cell ids after #start")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--max-len", type=int, default=40)
    p.add_argument("--start-time", type=float, default=None)

    p = stage(cmd_evaluate, "prefix-split evaluation with k candidates per task", sequences, accumulation, seed, out)
    p.add_argument("--ckpt", "--model", dest="ckpt", required=True, help="model checkpoint path")
    p.add_argument("--split", choices=corpus.SPLITS, default="test")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--g-policy", default="all", help='"all" or comma-separated g values')
    p.add_argument("--limit", type=int, default=0, help="cap the number of sequences (0 = all)")

    p = stage(cmd_hypersearch, "GP search over learning rate and layer dimensions",
              sequences, accumulation, model, seed, out)
    p.add_argument("--trials", type=int, default=12)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr-range", default="1e-5,1e-2")
    p.add_argument("--d-e-range", default="8,64")
    p.add_argument("--d-h-range", default="8,64")
    p.add_argument("--limit", type=int, default=0)

    p = stage(cmd_report, "aggregate score files and improvement-rate tables", out)
    p.add_argument("--arnn", help="score file from the attention model")
    p.add_argument("--rnn", help="score file from the baseline model")
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
        if "out" in vars(args):  # every stage but generate
            Path(args.out).mkdir(parents=True, exist_ok=True)
        fields = args.func(args)
        if fields is not None:
            _write_manifest(args, fields)
        return 0
    except Exception as exc:  # noqa: BLE001 - surface stage failures as exit 1
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
