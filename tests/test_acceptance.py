"""Acceptance suite: one test per exit criterion.

Each test prints a single ``ACCEPTANCE <name>: PASS/FAIL`` line (visible
with ``pytest -s``) and asserts at the criterion's stated tolerance. The
mechanism differential builds its corpus and trains both models once per
session via a module-scoped fixture.
"""
import time

import numpy as np
import pytest

from cellseq import corpus, evaluation, hypersearch, metrics, models, nncore, synthworld
from cellseq.cellspace import cluster_points, discretize_trajectory
from cellseq.cli import main as cli_main
from cellseq.metrics import score_vector
from cellseq.models import ArnnModel, ModelDims, RnnModel, make_example
from cellseq.tokens import END, START, Vocab

from oracles import bleu_oracle, grad_check, meteor_oracle


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. metric oracle suite


def test_metric_oracle_suite():
    rng = np.random.default_rng(20240501)
    cases = 10_000
    worst = 0.0
    for _ in range(cases):
        cand = list(rng.integers(1, 4, size=rng.integers(0, 7)))
        ref = list(rng.integers(1, 4, size=rng.integers(0, 7)))
        scores = score_vector(cand, ref).as_tuple()
        for n in (1, 2, 3, 4):
            worst = max(worst, abs(scores[n - 1] - bleu_oracle(cand, ref, n)))
        worst = max(worst, abs(scores[4] - meteor_oracle(cand, ref)))
        if worst > 1e-12:
            break

    # worked examples reproduce exactly
    crossed = metrics._align(("b", "a"), ("a", "b"))
    examples_ok = (
        metrics._precisions(("a", "a", "a"), ("a", "b"))[0] == pytest.approx(1 / 3, abs=1e-15)
        and metrics._precisions(("a", "b", "c"), ("a", "b", "d"))[1] == 0.5
        and score_vector(["a", "b"], ["a", "b", "c", "d"]).bleu1 == 0.5
        and score_vector(["a", "b", "c"], ["a", "b", "d"]).bleu2 == pytest.approx((1 / 3) ** 0.5, abs=1e-12)
        and score_vector(["a", "b", "c", "d"], ["a", "b", "c", "d"]).meteor == pytest.approx(0.9921875, abs=1e-12)
        and score_vector(["a", "c", "b"], ["a", "b", "c"]).meteor == pytest.approx(1 - 0.5 * (2 / 3) ** 3, abs=1e-12)
        and crossed.matched == 2
        and crossed.crossings == 1
    )
    _report(
        "metric-oracle-suite",
        worst <= 1e-12 and examples_ok,
        f"{cases} random cases, max |diff| = {worst:.2e}, worked examples {'ok' if examples_ok else 'BAD'}",
    )


# ---------------------------------------------------------------------------
# 2. gradient correctness


def _mean_loss_fn(model, x_ids, y_ids, traffic):
    # per-step mean keeps the function value O(1); the gradients are the
    # full-loss gradients scaled by the same constant
    steps = len(x_ids)

    def fn(_):
        loss, grad = models.batch_loss_and_grads(model, [models.TrainingExample(x_ids, y_ids, traffic)])
        return loss / steps, nncore.views(grad / steps, model.params)

    return fn


def test_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(24):
        arnn = i >= 12
        vocab = Vocab(range(1, int(rng.integers(3, 9))))
        if arnn:
            dims = ModelDims(
                d_e=int(rng.integers(2, 8)),
                d_h=int(rng.integers(2, 8)),
                d_f=int(rng.integers(2, 6)),
                d_a=int(rng.integers(2, 6)),
            )
            model = ArnnModel.init(vocab, dims, seed=int(rng.integers(10_000)))
            traffic = rng.random((int(rng.integers(2, 7)), 10))
        else:
            dims = ModelDims(d_e=int(rng.integers(2, 9)), d_h=int(rng.integers(2, 9)))
            model = RnnModel.init(vocab, dims, seed=int(rng.integers(10_000)))
            traffic = None
        t = int(rng.integers(2, 6 if not arnn else 5))
        x_ids = np.array([0] + list(rng.integers(2, len(vocab), size=t - 1)))
        y_ids = np.array(list(rng.integers(2, len(vocab), size=t - 1)) + [1])
        fn = _mean_loss_fn(model, x_ids, y_ids, traffic)
        # a coordinate is confirmed if any of the central-difference steps
        # agrees: small steps are noise-limited near zero gradients, large
        # ones truncation-limited elsewhere
        err = min(grad_check(fn, model.params, eps=eps) for eps in (1e-3, 5e-4, 2e-4))
        worst = max(worst, err)
    elapsed = time.perf_counter() - started
    _report(
        "gradient-correctness",
        worst < 1e-4 and elapsed < 60.0,
        f"24 instances (12 baseline, 12 attention), max rel err = {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. normalization invariants


def test_normalization_invariants():
    rng = np.random.default_rng(11)
    checked_probs = 0
    checked_alpha = 0
    ok = True
    for i in range(1000):
        v_cells = int(rng.integers(2, 8))
        vocab = Vocab(range(1, v_cells + 1))
        dims = ModelDims(d_e=int(rng.integers(2, 6)), d_h=int(rng.integers(2, 6)))
        arnn = bool(rng.integers(0, 2))
        seed = int(rng.integers(100_000))
        if arnn:
            model = ArnnModel.init(vocab, dims, seed=seed)
            traffic = rng.random((int(rng.integers(2, 8)), 10))
        else:
            model = RnnModel.init(vocab, dims, seed=seed)
            traffic = None
        (res,) = models.generate_batch(model, [START], [seed], max_len=int(rng.integers(3, 15)), traffic=traffic)
        # every fed token's distribution and attention row, from the program's unroll of what it sampled
        run = models._Unroll(model, np.array([vocab.encode(res.tokens[:-1])]),
                             None if traffic is None else traffic[None], keep=False)
        for probs in nncore.softmax(run.hs[:, 0] @ model.params["dec_W"] + model.params["dec_b"]):
            checked_probs += 1
            ok &= abs(float(probs.sum()) - 1.0) <= 1e-9 and bool(np.all(probs >= 0))
        if run.att is not None:
            for alpha in run.alphas[:, 0]:
                checked_alpha += 1
                ok &= abs(float(alpha.sum()) - 1.0) <= 1e-9
        if not ok:
            break
    _report(
        "normalization-invariants",
        ok and checked_probs > 0 and checked_alpha > 0,
        f"1000 generations, {checked_probs} probability vectors, {checked_alpha} attention rows",
    )


# ---------------------------------------------------------------------------
# 4. memorization


def test_memorization():
    started = time.perf_counter()
    vocab = Vocab(range(1, 10))
    sequence = (START, 3, 7, 2, 9, END)
    examples = [make_example(vocab, sequence) for _ in range(10)]
    model = RnnModel.init(vocab, ModelDims(d_e=12, d_h=12), seed=0)
    result = models.train(model, examples, lr=5e-3, epochs=500, seed=1)
    final_loss = result.epoch_losses[-1]

    target = list(sequence[2:])
    hits = 0
    for res in models.generate_batch(model, [START, 3], list(range(1000)), max_len=24):
        hits += res.tokens[2:] == target
    rate = hits / 1000
    elapsed = time.perf_counter() - started
    _report(
        "memorization",
        final_loss < 0.05 and rate > 0.95 and elapsed < 120.0,
        f"final loss {final_loss:.4f}, reproduction rate {rate:.3f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. mechanism differential


@pytest.fixture(scope="module")
def differential():
    """Train both generators on the asymmetric two-corridor world."""
    world = synthworld.generate_world(
        rows=4, cols=8, spacing=300.0, seed=42, horizon_minutes=720, block_minutes=60,
        epsilon=0.1, congested_speed=3.0,
    )
    trips = synthworld.simulate_trips(world, 6000, seed=43)
    assert len(trips) >= 5000
    dataset, vocab, lookup = corpus.build(trips, radius=135.0, fractions=(0.8, 0.1, 0.1), seed=7)

    dims = ModelDims(d_e=16, d_h=16)
    rnn = RnnModel.init(vocab, dims, seed=1)
    arnn = ArnnModel.init(vocab, dims, seed=2)
    models.train(rnn, models.make_examples(dataset.train, vocab), lr=3e-3, epochs=8, seed=5)
    models.train(arnn, models.make_examples(dataset.train, vocab, lookup), lr=3e-3, epochs=8, seed=5)

    test_records = [r for r in dataset.test if all(t in vocab for t in r.tokens)][:150]
    rnn_scores, _ = evaluation.evaluate_records(test_records, rnn, None, master_seed=99, k=20)
    arnn_scores, _ = evaluation.evaluate_records(test_records, arnn, lookup, master_seed=99, k=20)
    return rnn_scores, arnn_scores


def test_mechanism_differential(differential):
    started = time.perf_counter()
    rnn_scores, arnn_scores = differential

    rnn_g1 = np.mean([r.mean.meteor for r in rnn_scores if r.g == 1])
    arnn_g1 = np.mean([r.mean.meteor for r in arnn_scores if r.g == 1])
    gain = arnn_g1 / rnn_g1 - 1.0

    report = evaluation.improvement_rate(arnn_scores, rnn_scores)
    ms = sorted(report.per_m)
    small = ms[: max(1, len(ms) // 2)]
    small_avg = float(np.mean([report.per_m[m]["meteor"][0] for m in small]))
    largest_avg = report.per_m[ms[-1]]["meteor"][0]
    elapsed = time.perf_counter() - started

    _report(
        "mechanism-differential",
        gain >= 0.05 and small_avg >= 1.0 and 0.95 <= largest_avg <= 1.10,
        f"g=1 METEOR gain {gain * 100:.1f}% (rnn {rnn_g1:.3f}, arnn {arnn_g1:.3f}); "
        f"small-m avg ratio {small_avg:.3f}; largest-m (m={ms[-1]}) ratio {largest_avg:.3f}; "
        f"scoring {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. discretize/split shift identity


def test_pipeline_identity():
    world = synthworld.generate_world(rows=4, cols=7, spacing=300.0, seed=3, horizon_minutes=240)
    trips = synthworld.simulate_trips(world, 1000, seed=4)
    cmap = cluster_points(np.concatenate([t.xy for t in trips[:300]]), radius=135.0)
    vocab = Vocab(range(1, cmap.n_cells + 1))
    violations = 0
    for trip in trips:
        seq = discretize_trajectory(trip, cmap)
        if seq.m > len(trip):
            violations += 1
        sample = make_example(vocab, seq.tokens)
        if len(sample.x_ids) != len(sample.y_ids):
            violations += 1
        for i in range(len(sample.x_ids) - 1):
            if sample.y_ids[i] != sample.x_ids[i + 1]:
                violations += 1
                break
    _report("pipeline-identity", violations == 0, f"1000 trajectories, {violations} violations")


# ---------------------------------------------------------------------------
# 7. GP search sanity


def test_gp_search_sanity():
    hits = 0
    for seed in range(10):
        res = hypersearch.minimize(
            lambda x: float((x[0] - 0.3) ** 2), dim=1, budget=20, seed=seed
        )
        hits += abs(float(res.best_x[0]) - 0.3) <= 0.05
    _report("gp-search-sanity", hits >= 9, f"{hits}/10 seeds within |x - 0.3| <= 0.05")


# ---------------------------------------------------------------------------
# 8. reproducibility


def test_reproducibility(tmp_path):
    root = tmp_path
    assert cli_main(["synth", "--out", str(root / "s"), "--rows", "3", "--cols", "5",
                     "--trips", "200", "--horizon-min", "180", "--seed", "13"]) == 0
    assert cli_main(["discretize", "--in", str(root / "s" / "trips.tsv"), "--out", str(root / "d"),
                     "--radius", "135", "--seed", "1"]) == 0
    assert cli_main(["train", "--sequences", str(root / "d" / "sequences.tsv"), "--model", "rnn",
                     "--d-e", "6", "--d-h", "6", "--epochs", "1", "--seed", "2",
                     "--out", str(root / "m")]) == 0
    for name in ("e1", "e2"):
        assert cli_main(["evaluate", "--ckpt", str(root / "m" / "model.ckpt"),
                         "--sequences", str(root / "d" / "sequences.tsv"), "--split", "test",
                         "--k", "4", "--limit", "8", "--seed", "77", "--out", str(root / name)]) == 0
    same = (root / "e1" / "scores.tsv").read_bytes() == (root / "e2" / "scores.tsv").read_bytes()
    _report("reproducibility", same, "two evaluate runs, byte-identical score files")
