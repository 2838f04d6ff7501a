#!/usr/bin/env python3
"""Attention-vs-baseline experiment on the two-corridor synthetic world.

Trains both generators on the same corpus, evaluates every (sequence, g)
task on a held-out test subset, and prints each model's evaluation
diagnostics (what was skipped, distinct and unterminated candidates, inexact
alignments), the per-m improvement-rate table and the pre-divergence (g = 1)
METEOR comparison. The world's two
corridors have different lengths, so the pre-trip accumulation pattern
identifies which corridor is currently favored; only the attention model
can read it.
"""
import argparse
import time

import numpy as np

from cellseq import corpus, evaluation, models, synthworld
from cellseq.metrics import ScoreVector
from cellseq.models import ArnnModel, ModelDims, RnnModel


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trips", type=int, default=6000)
    parser.add_argument("--horizon-min", type=int, default=720)
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--k", type=int, default=20)
    parser.add_argument("--eval-limit", type=int, default=150)
    parser.add_argument("--d", type=int, default=16, help="embedding and hidden dimension")
    parser.add_argument("--lr", type=float, default=3e-3)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    t0 = time.time()
    world = synthworld.generate_world(
        rows=4, cols=8, spacing=300.0, seed=args.seed, horizon_minutes=args.horizon_min,
        block_minutes=60, epsilon=0.1, congested_speed=3.0,
    )
    trips = synthworld.simulate_trips(world, args.trips, seed=args.seed + 1)
    dataset, vocab, lookup = corpus.build(trips, radius=135.0, fractions=(0.8, 0.1, 0.1), seed=args.seed + 2)
    print(f"corpus: {dataset.sizes()} sequences, {len(vocab.cells)} active cells "
          f"({time.time() - t0:.0f}s)")

    dims = ModelDims(d_e=args.d, d_h=args.d)
    test_records = [r for r in dataset.test if all(t in vocab for t in r.tokens)][: args.eval_limit]
    scores = {}
    for kind, cls, traffic in (("rnn", RnnModel, None), ("arnn", ArnnModel, lookup)):
        model = cls.init(vocab, dims, seed=1 if kind == "rnn" else 2)
        t1 = time.time()
        result = models.train(model, models.make_examples(dataset.train, vocab, traffic),
                              lr=args.lr, epochs=args.epochs, seed=5)
        print(f"{kind}: trained {args.epochs} epochs in {time.time() - t1:.0f}s, "
              f"final loss {result.epoch_losses[-1]:.4f}, gradient norm {result.epoch_grad_norms[-1]:.3f}")
        scores[kind], diag = evaluation.evaluate_records(test_records, model, traffic, master_seed=99, k=args.k)
        print(f"{kind}: evaluated {len(scores[kind])} tasks in {diag.generate_s + diag.score_s:.2f}s "
              f"(generate {diag.generate_s:.2f}s, score {diag.score_s:.2f}s)")
        print(f"{kind}: {diag.candidates} candidates, {diag.distinct_candidates} distinct, "
              f"{diag.unterminated} unterminated, {diag.alignment_fallbacks} with an inexact METEOR alignment; "
              f"skipped {diag.skipped_short} short, {diag.skipped_no_g} g-less and {diag.skipped_unknown_cell} "
              f"unknown-cell sequences, "
              f"and {diag.skipped_at_cap} tasks whose prefix fills the length cap")

    rnn_g1 = np.mean([r.mean.meteor for r in scores["rnn"] if r.g == 1])
    arnn_g1 = np.mean([r.mean.meteor for r in scores["arnn"] if r.g == 1])
    print(f"\npre-divergence (g=1) METEOR: baseline {rnn_g1:.4f}, attention {arnn_g1:.4f} "
          f"({(arnn_g1 / rnn_g1 - 1) * 100:+.1f}%)")

    report = evaluation.improvement_rate(scores["arnn"], scores["rnn"])
    print("\nper-m improvement rate (attention / baseline):")
    print("m   " + "  ".join(f"{name:>7s}" for name in ScoreVector.NAMES))
    for m in sorted(report.per_m):
        row = "  ".join(f"{report.per_m[m][name][0]:7.3f}" for name in ScoreVector.NAMES)
        print(f"{m:<3d} {row}")
    print(f"\ntotal {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
