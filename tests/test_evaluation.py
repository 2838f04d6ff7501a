import hashlib
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cellseq import evaluation, metrics, models
from cellseq.corpus import SequenceRecord
from cellseq.evaluation import (
    EvalTask,
    ScoreRecord,
    aggregate_by_length,
    derive_seed,
    evaluate_records,
    improvement_rate,
    make_tasks,
    read_scores,
    summarize,
    write_scores,
)
from cellseq.metrics import ScoreVector, score_vector
from cellseq.models import ArnnModel, ModelDims, RnnModel, make_example
from cellseq.tokens import END, START, Vocab, strip_virtual

from leaves import leaves_of, rows_of
from oracles import GOLDEN_GAMMA, sample_oracle, splitmix64_oracle


def record(trip_id, cells, start=600.0 * 60):
    return SequenceRecord(trip_id, start, (START, *cells, END))


@pytest.fixture(scope="module")
def memorized_model():
    vocab = Vocab(range(1, 6))
    model = RnnModel.init(vocab, ModelDims(d_e=6, d_h=6), seed=0)
    examples = [make_example(vocab, (START, 1, 2, 3, 4, END))]
    models.train(model, examples, lr=1e-2, epochs=400, seed=0)
    return model


# ---------------------------------------------------------------------------
# tasks


def test_make_tasks_default_policy():
    tasks, skipped, no_g = make_tasks([record("a", [1, 2, 3])])
    assert [(t.g) for t in tasks] == [1, 2]
    assert skipped == no_g == 0


def test_make_tasks_counts_short_sequences():
    tasks, skipped, no_g = make_tasks([record("a", [1])])
    assert tasks == []
    assert (skipped, no_g) == (1, 0)


def test_make_tasks_counting_example():
    recs = [record(f"t{i}", [1, 2, 3, 4, 5]) for i in range(10)]  # m = 5
    tasks, _, _ = make_tasks(recs)
    assert len(tasks) == 40


def test_task_invariant_g_less_than_m():
    with pytest.raises(ValueError):
        EvalTask("a", (START, 1, 2, END), 0.0, g=2, k=1)
    with pytest.raises(ValueError):
        EvalTask("a", (START, 1, 2, END), 0.0, g=0, k=1)


def test_g_policy_filtering():
    tasks, _, _ = make_tasks([record("a", [1, 2, 3, 4])], g_policy=[1, 3, 9])
    assert [t.g for t in tasks] == [1, 3]


def test_g_policy_counts_sequences_without_a_listed_g():
    recs = [record("short", [1]), record("m3", [1, 2, 3]), record("m5", [1, 2, 3, 4, 5])]
    tasks, short, no_g = make_tasks(recs, g_policy=[3, 4])
    assert [(t.trip_id, t.g) for t in tasks] == [("m5", 3), ("m5", 4)]
    assert (short, no_g) == (1, 1)
    assert make_tasks(recs)[1:] == (1, 0)
    model = models.RnnModel.init(Vocab([1, 2, 3, 4, 5]), ModelDims(d_e=2, d_h=2), seed=0)
    out, diag = evaluate_records(recs, model, None, master_seed=0, k=2, g_policy=[50])
    assert out == [] and (diag.skipped_short, diag.skipped_no_g) == (1, 2)


# ---------------------------------------------------------------------------
# one task


def run_task(task, model, lookup, master_seed):
    """The score record of one task: ``evaluate_records`` on its sequence
    alone, at its g only."""
    seq = SequenceRecord(task.trip_id, task.start_time, task.tokens)
    (rec,), _ = evaluate_records([seq], model, lookup, master_seed, k=task.k, g_policy=[task.g])
    return rec


def test_run_task_k1_equals_single_generate(memorized_model):
    task = EvalTask("trip", (START, 1, 2, 3, 4, END), 0.0, g=2, k=1)
    rec = run_task(task, memorized_model, None, master_seed=77)
    seed = derive_seed(77, "trip", 2, 0)
    ids = sample_oracle(memorized_model, [START, 1, 2], seed, models.default_max_len(6))
    cells = [t for t in memorized_model.vocab.decode(list(ids)) if isinstance(t, int)]
    expect = score_vector(cells, [3, 4])
    assert rec.mean == expect
    assert rec.raw == (expect,)


def test_run_task_memorized_model_perfect_bleu1(memorized_model):
    task = EvalTask("trip", (START, 1, 2, 3, 4, END), 0.0, g=1, k=16)
    rec = run_task(task, memorized_model, None, master_seed=5)
    assert rec.mean.bleu1 == pytest.approx(1.0, abs=1e-6)
    assert rec.m == 4 and rec.g == 1


def test_run_task_deterministic(memorized_model):
    task = EvalTask("trip", (START, 1, 2, 3, 4, END), 0.0, g=1, k=8)
    a = run_task(task, memorized_model, None, master_seed=123)
    b = run_task(task, memorized_model, None, master_seed=123)
    assert a == b


def test_run_task_mean_is_mean_of_raws(memorized_model):
    task = EvalTask("trip", (START, 1, 2, 3, 4, END), 0.0, g=1, k=12)
    rec = run_task(task, memorized_model, None, master_seed=9)
    for name in ScoreVector.NAMES:
        assert getattr(rec.mean, name) == pytest.approx(
            np.mean([getattr(r, name) for r in rec.raw]), abs=1e-12
        )


@pytest.mark.parametrize("k", [1, 7, 8, 9, 20, 100, 129, 300])
def test_score_means_equal_np_mean_bit_for_bit(k):
    vocab = Vocab(range(1, 10))
    task = EvalTask("trip", (START, *range(1, 10), END), 0.0, g=1, k=k)
    rng = np.random.default_rng(k)
    rows = [(*map(int, rng.integers(2, len(vocab), rng.integers(1, 12))), vocab.end_id) for _ in range(k)]
    (rec,) = evaluation._score_block([task], leaves_of([rows]), vocab)
    assert len(rec.raw) == k
    for name in ScoreVector.NAMES:
        assert getattr(rec.mean, name).hex() == float(np.mean([getattr(r, name) for r in rec.raw])).hex()


def check_block(tasks, sampled, vocab):
    """``_score_block`` against ``score_vector`` on each candidate alone,
    bit for bit, and against brute-force counts."""
    records = evaluation._score_block(tasks, leaves_of(sampled), vocab)
    assert [(r.trip_id, r.g, r.m) for r in records] == [(t.trip_id, t.g, len(t.tokens) - 2) for t in tasks]
    for task, rows, rec in zip(tasks, sampled, records):
        reference = task.tokens[task.g + 1 : -1]
        continuations = [tuple(strip_virtual(vocab.decode(ids))) for ids in rows]
        expect = [score_vector(c, reference) for c in continuations]
        assert [[v.hex() for v in r.as_tuple()] + [r.meteor_exact] for r in rec.raw] == [
            [v.hex() for v in e.as_tuple()] + [e.meteor_exact] for e in expect
        ]
        for name in ScoreVector.NAMES:
            assert getattr(rec.mean, name).hex() == float(np.mean([getattr(e, name) for e in expect])).hex()
        assert rec.distinct == len(set(continuations))
        assert rec.unterminated == sum(ids[-1] != vocab.end_id for ids in rows)
        assert rec.alignment_fallbacks == sum(not score_vector(c, reference).meteor_exact for c in set(continuations))
    return records


@st.composite
def blocks(draw):
    """A block of tasks of one k over a few cells. Candidates come from a
    small pool of id rows, so that they repeat, and some get a #start
    inserted or their #end dropped or added, so that rows differ only by a
    marker; rows may be empty of cells or unterminated, and cells repeat on
    either side, so that pairs take the slow path."""
    vocab = Vocab(range(1, draw(st.integers(1, 5)) + 1))
    ids = st.integers(0, len(vocab) - 1)
    k = draw(st.integers(1, 6))
    tasks, sampled = [], []
    for i in range(draw(st.integers(1, 4))):
        cells = draw(st.lists(st.sampled_from(vocab.cells), min_size=2, max_size=8))
        tasks.append(EvalTask(f"t{i}", (START, *cells, END), 0.0, g=draw(st.integers(1, len(cells) - 1)), k=k))
        pool = draw(st.lists(st.lists(ids, min_size=1, max_size=9), min_size=1, max_size=4))
        rows = []
        for _ in range(k):
            row = list(draw(st.sampled_from(pool)))
            edit = draw(st.sampled_from(["none", "start", "end"]))
            if edit == "start":
                row.insert(draw(st.integers(0, len(row))), 0)
            elif edit == "end":
                row = row[:-1] if row[-1] == vocab.end_id and len(row) > 1 else row + [vocab.end_id]
            rows.append(tuple(row))
        sampled.append(rows)
    return tasks, sampled, vocab


@settings(deadline=None, max_examples=300)
@given(blocks())
def test_score_block_equals_score_vector_per_candidate(block):
    check_block(*block)


def test_score_block_dedupes_marker_variants_and_scores_only_slow_pairs_alone(monkeypatch):
    scored = []

    def counted(cand, ref):
        scored.append(cand)
        return metrics.score_vector(cand, ref)

    monkeypatch.setattr(evaluation, "score_vector", counted)
    vocab = Vocab(range(1, 6))
    tasks = [EvalTask("a", (START, 1, 2, 3, 4, 5, END), 0.0, g=1, k=6),
             EvalTask("b", (START, 1, 2, 2, 3, 2, END), 0.0, g=1, k=6)]
    # cells (1, 2, 3) three times, once unterminated; (3, 2, 2); no cells, once unterminated
    rows = [(2, 3, 4, 1), (0, 2, 3, 4, 1), (2, 3, 0, 4), (4, 3, 3, 1), (1,), (0, 0, 0, 0)]
    records = evaluation._score_block(tasks, leaves_of([rows, rows]), vocab)
    assert [(r.distinct, r.unterminated) for r in records] == [(3, 2), (3, 2)]
    # (3, 2, 2) repeats a shared cell against both references, (1, 2, 3)
    # shares the cell that b's reference repeats: three pairs off the fast path
    assert len(scored) == 3
    check_block(tasks, [rows, rows], vocab)


def test_score_block_keys_do_not_overflow_on_a_large_vocabulary():
    # two 4-grams whose keys in base len(vocab) differ by exactly 2**64, so
    # that an int64 n-gram key of that form would give them one key
    vocab = Vocab(range(1, 70_001))
    base, digits, rest = len(vocab), [], 2**64
    for _ in range(3):  # balanced low digits of 2**64 in base len(vocab); the top one takes the rest
        rest, d = divmod(rest, base)
        if d > base // 2:
            rest, d = rest + 1, d - base
        digits.insert(0, d)
    digits.insert(0, rest)
    assert all(abs(d) < base - 2 for d in digits)
    ref_ids = [2 + max(d, 0) for d in digits]
    cand_ids = [2 + max(-d, 0) for d in digits]
    assert sum((r - c) * base ** (3 - i) for i, (r, c) in enumerate(zip(ref_ids, cand_ids))) == 2**64
    rng = np.random.default_rng(0)
    far = [int(x) for x in rng.choice(np.arange(60_000, base), 40, replace=False)]  # none of the ids above
    reference = vocab.decode(ref_ids + far[:10])
    tasks = [EvalTask("x", (START, 5, *reference, END), 0.0, g=1, k=3),
             EvalTask("y", (START, *vocab.decode(far[10:20]), END), 0.0, g=2, k=3)]
    rows = [(*cand_ids, *far[:10], 1), tuple(far[5:25]), (*ref_ids, far[0], far[1], 1)]
    check_block(tasks, [rows, rows[::-1]], vocab)


def test_run_task_scores_repeated_candidates_like_each_one():
    vocab = Vocab(range(1, 4))
    model = RnnModel.init(vocab, ModelDims(d_e=3, d_h=3), seed=4)  # untrained: short repeats
    task = EvalTask("trip", (START, 1, 2, 3, END), 0.0, g=1, k=40)
    rec = run_task(task, model, None, master_seed=3)
    seeds = [derive_seed(3, "trip", 1, i) for i in range(task.k)]
    results = models.generate_batch(model, [START, 1], seeds, models.default_max_len(5))
    continuations = [[t for t in r.tokens[2:] if isinstance(t, int)] for r in results]
    assert 1 < rec.distinct == len({tuple(c) for c in continuations}) < task.k
    expect = [score_vector(c, [2, 3]).as_tuple() for c in continuations]
    assert [[v.hex() for v in r.as_tuple()] for r in rec.raw] == [[v.hex() for v in e] for e in expect]


def test_run_task_counts_alignment_fallbacks(monkeypatch):
    # a search budget of one state cuts every search that neither the greedy
    # nor the guided alignment settles; only pairs that repeat a shared cell
    # reach the search, and here the cut alignments score as the exact ones
    vocab = Vocab(range(1, 5))
    model = RnnModel.init(vocab, ModelDims(d_e=3, d_h=3), seed=4)
    task = EvalTask("trip", (START, 1, 2, 3, 4, END), 0.0, g=1, k=40)
    plain = run_task(task, model, None, master_seed=3)
    monkeypatch.setattr(metrics, "_SEARCH_BUDGET", 1)
    rec = run_task(task, model, None, master_seed=3)
    seeds = [derive_seed(3, "trip", 1, i) for i in range(task.k)]
    results = models.generate_batch(model, [START, 1], seeds, models.default_max_len(6))
    continuations = [tuple(t for t in r.tokens[2:] if isinstance(t, int)) for r in results]
    cut = {c for c in continuations if not score_vector(c, [2, 3, 4]).meteor_exact}
    assert plain.alignment_fallbacks == 0
    assert 0 < rec.alignment_fallbacks == len(cut) < rec.distinct
    assert [not r.meteor_exact for r in rec.raw] == [c in cut for c in continuations]
    assert [r.as_tuple() for r in rec.raw] == [r.as_tuple() for r in plain.raw]


def test_evaluate_records_counts_candidates(memorized_model):
    records = [record("a", [1, 2, 3]), record("b", [1, 2, 3, 4])]
    out, diag = evaluate_records(records, memorized_model, None, master_seed=1, k=4)
    assert diag.candidates == 4 * len(out) == 20
    assert diag.distinct_candidates == sum(r.distinct for r in out)
    assert len(out) <= diag.distinct_candidates <= diag.candidates
    assert diag.alignment_fallbacks == sum(r.alignment_fallbacks for r in out) == 0


@settings(deadline=None, max_examples=40)
@given(data=st.data(), n_cells=st.integers(1, 4), init_seed=st.integers(0, 9999), k=st.integers(1, 8))
def test_leaves_are_distinct_per_fork_and_merge_marker_variants(data, n_cells, init_seed, k):
    # an untrained model that favours #start samples it inside continuations,
    # so that leaves of one fork can differ only by it and must score as one
    # continuation
    vocab = Vocab(range(1, n_cells + 1))
    model = RnnModel.init(vocab, ModelDims(d_e=3, d_h=3), seed=init_seed)
    model.params["dec_b"][vocab.encode([START])] += 2.0
    cells = st.lists(st.integers(1, n_cells), min_size=2, max_size=6)
    seqs = [(START, *data.draw(cells), END) for _ in range(data.draw(st.integers(1, 3)))]
    tasks, forks = [], []
    for _ in range(data.draw(st.integers(1, 4))):
        trip = data.draw(st.integers(0, len(seqs) - 1))
        g = data.draw(st.integers(1, len(seqs[trip]) - 3))
        tasks.append(EvalTask(f"t{trip}", seqs[trip], 0.0, g=g, k=k))
        seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=k, max_size=k))
        forks.append(models.Fork(trip, g + 1, seeds, g + 1 + data.draw(st.integers(1, 8))))
    leaves = models.sample_forks(model, seqs, None, forks)
    ids, fork, _ = leaves
    named = [(f, tuple(row[row >= 0].tolist())) for f, row in zip(fork.tolist(), ids)]
    assert len(set(named)) == len(named)
    rows = rows_of(leaves, len(forks))
    assert rows == [[sample_oracle(model, seqs[f.trip][: f.n], seed, f.max_len) for seed in f.seeds] for f in forks]
    records = evaluation._score_block(tasks, leaves, vocab)
    assert [r.distinct for r in records] == [len({tuple(strip_virtual(vocab.decode(ids))) for ids in task_rows})
                                             for task_rows in rows]
    assume(any(vocab.encode([START])[0] in ids for task_rows in rows for ids in task_rows))


def test_evaluate_skips_tasks_whose_prefix_fills_the_length_cap():
    # default_max_len caps a 101-cell sequence at 100 tokens, prefix
    # included, so its tasks g = 99 and 100 leave nothing to sample; every
    # other task scores as it does alone
    vocab = Vocab(range(1, 6))
    model = RnnModel.init(vocab, ModelDims(d_e=3, d_h=3), seed=1)
    records = [record("long", [1 + i % 5 for i in range(101)]), record("short", [1, 2, 3])]
    out, diag = evaluate_records(records, model, None, master_seed=4, k=2)
    assert diag.skipped_at_cap == 2
    assert [(r.trip_id, r.g) for r in out] == [("long", g) for g in range(1, 99)] + [("short", 1), ("short", 2)]
    by_id = {rec.trip_id: rec for rec in records}
    for rec in out:
        task = EvalTask(rec.trip_id, by_id[rec.trip_id].tokens, by_id[rec.trip_id].start_time, rec.g, k=2)
        assert (rec.raw, rec.unterminated) == reference_task(task, model, None, master_seed=4)


class FixedWindows:
    """Traffic lookup stand-in: one fixed random [N, 10] window per start time."""

    def __init__(self, n_cells):
        self.n_cells = n_cells

    def window(self, start_time):
        return np.random.default_rng(int(start_time)).random((self.n_cells, 10))


def reference_task(task, model, lookup, master_seed):
    """One task as it was scored before generation was batched: its
    own ``generate_batch`` call over k rows, every candidate scored."""
    prefix = list(task.tokens[: task.g + 1])
    reference = list(task.tokens[task.g + 1 : -1])
    traffic = lookup.window(task.start_time) if lookup is not None else None
    seeds = [derive_seed(master_seed, task.trip_id, task.g, i) for i in range(task.k)]
    results = models.generate_batch(model, prefix, seeds, models.default_max_len(len(task.tokens)), traffic=traffic)
    raw = tuple(score_vector(strip_virtual(r.tokens[len(prefix) :]), reference) for r in results)
    return raw, sum(not r.terminated for r in results)


@pytest.fixture(scope="module")
def loose_models():
    """Untrained models over 6 cells whose #end is unlikely, so that some
    candidates run to ``default_max_len``. Weights are scaled up so that the
    state, and for the attention model each sequence's traffic window,
    changes what they sample."""
    vocab = Vocab(range(1, 7))
    out = {}
    for cls in (RnnModel, ArnnModel):
        model = cls.init(vocab, ModelDims(d_e=4, d_h=5), seed=3)
        for name in ("embed", "lstm_U", "dec_W"):
            model.params[name] *= 3.0
        model.params["dec_b"][vocab.end_id] = -2.5
        if cls is ArnnModel:
            model.params["traffic_W"] *= 8.0
            model.params["lstm_W"][4:] *= 8.0
        out[cls.kind] = model
    return out


SPLIT_RECORDS = [  # m = 2, 3, 5 and 6: g = 1 .. m - 1 for each
    record("a", [1, 2], start=601.0 * 60),
    record("b", [3, 1, 4], start=602.0 * 60),
    record("c", [2, 6, 5, 3, 1], start=603.0 * 60),
    record("d", [6, 5, 4, 3, 2, 1], start=604.0 * 60),
]


@pytest.mark.parametrize("kind", ["rnn", "arnn"])
@pytest.mark.parametrize("k", [1, 5])
def test_evaluate_records_equals_per_task_generation(loose_models, monkeypatch, kind, k):
    model = loose_models[kind]
    lookup = FixedWindows(len(model.vocab.cells)) if kind == "arnn" else None
    tasks = sorted(make_tasks(SPLIT_RECORDS, k=k)[0], key=lambda t: (t.trip_id, t.g))
    expect = [reference_task(task, model, lookup, master_seed=8) for task in tasks]
    assert {t.g for t in tasks if t.trip_id == "d"} == {1, 2, 3, 4, 5}
    assert sum(unterminated for _, unterminated in expect) > 0  # some candidates hit the cap
    # 1, 7 and 3 states per generation step (chunks that cross tasks and
    # sequences), with the sequences teacher-forced alone or in pairs
    for row_cap, trips_per_unroll in ((1, 32), (7, 32), (3, 2), (models.ROW_CAP, 1)):
        monkeypatch.setattr(models, "ROW_CAP", row_cap)
        monkeypatch.setattr(models, "MEAN_LOSS_CHUNK", trips_per_unroll)
        out, diag = evaluate_records(SPLIT_RECORDS, model, lookup, master_seed=8, k=k)
        assert [(r.trip_id, r.g) for r in out] == [(t.trip_id, t.g) for t in tasks]
        assert [r.raw for r in out] == [raw for raw, _ in expect], (row_cap, trips_per_unroll)
        assert [r.unterminated for r in out] == [unterminated for _, unterminated in expect]
        assert diag.unterminated == sum(unterminated for _, unterminated in expect)


def test_evaluate_records_times_generation_and_scoring(memorized_model):
    records = [record("a", [1, 2, 3]), record("b", [1, 2, 3, 4])]
    out, diag = evaluate_records(records, memorized_model, None, master_seed=1, k=4)
    assert diag.generate_s >= 0.0 and diag.score_s >= 0.0
    assert out == evaluate_records(records, memorized_model, None, master_seed=1, k=4)[0]
    empty, diag = evaluate_records([], memorized_model, None, master_seed=1, k=4)
    assert empty == [] and diag.generate_s >= 0.0 and diag.score_s >= 0.0


def test_evaluate_records_without_tasks_needs_no_lookup():
    model = models.ArnnModel.init(Vocab([1, 2]), ModelDims(d_e=2, d_h=2), seed=0)
    out, diag = evaluate_records([record("short", [1])], model, None, master_seed=0, k=3)
    assert out == [] and diag.skipped_short == 1


def test_run_task_arnn_requires_lookup():
    vocab = Vocab([1, 2])
    model = models.ArnnModel.init(vocab, ModelDims(d_e=2, d_h=2), seed=0)
    task = EvalTask("t", (START, 1, 2, END), 0.0, g=1, k=1)
    with pytest.raises(ValueError, match="traffic"):
        run_task(task, model, None, master_seed=0)


def test_evaluate_records_skips_unknown_cells(memorized_model):
    records = [record("ok", [1, 2, 3]), record("bad", [1, 99, 3])]
    out, diag = evaluate_records(records, memorized_model, None, master_seed=1, k=2)
    assert diag.skipped_unknown_cell == 1
    assert {r.trip_id for r in out} == {"ok"}


# ---------------------------------------------------------------------------
# aggregation


def make_score_record(trip_id, g, m, value):
    return ScoreRecord(trip_id, g, m, ScoreVector(value, value, value, value, value))


def test_aggregate_single_record():
    agg = aggregate_by_length([make_score_record("a", 1, 3, 0.4)])
    assert agg[3]["bleu1"].mean == pytest.approx(0.4)
    assert agg[3]["bleu1"].count == 1


def test_aggregate_two_record_mean():
    agg = aggregate_by_length([make_score_record("a", 1, 3, 0.4), make_score_record("b", 1, 3, 0.6)])
    assert agg[3]["meteor"].mean == pytest.approx(0.5)


@settings(deadline=None, max_examples=40)
@given(values=st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=100))
def test_quartiles_match_numpy_oracle(values):
    stats = summarize(values)
    assert stats.q1 == pytest.approx(float(np.percentile(values, 25)), abs=1e-12)
    assert stats.median == pytest.approx(float(np.percentile(values, 50)), abs=1e-12)
    assert stats.q3 == pytest.approx(float(np.percentile(values, 75)), abs=1e-12)
    assert stats.min == pytest.approx(min(values))
    assert stats.max == pytest.approx(max(values))


def test_aggregate_brute_force_on_random_records():
    rng = np.random.default_rng(0)
    records = [
        make_score_record(f"t{i}", 1 + int(rng.integers(0, 3)), int(rng.integers(3, 6)), float(rng.random()))
        for i in range(100)
    ]
    agg = aggregate_by_length(records)
    for m, per_score in agg.items():
        vals = [r.mean.bleu2 for r in records if r.m == m]
        assert per_score["bleu2"].count == len(vals)
        assert per_score["bleu2"].mean == pytest.approx(np.mean(vals))
        assert per_score["bleu2"].q3 == pytest.approx(float(np.percentile(vals, 75)), abs=1e-12)


# ---------------------------------------------------------------------------
# improvement rate


def test_improvement_identical_records_all_ones():
    records = [make_score_record("a", 1, 3, 0.5), make_score_record("b", 2, 4, 0.25)]
    report = improvement_rate(records, records)
    for ratios in report.per_gm.values():
        for name in ScoreVector.NAMES:
            assert ratios[name] == pytest.approx(1.0)


def test_improvement_simple_ratio():
    arnn = [make_score_record("a", 1, 3, 0.6)]
    rnn = [make_score_record("a", 1, 3, 0.5)]
    report = improvement_rate(arnn, rnn)
    assert report.per_gm[(1, 3)]["meteor"] == pytest.approx(1.2)
    assert report.per_m[3]["meteor"][0] == pytest.approx(1.2)


def test_improvement_zero_baseline_excluded():
    arnn = [make_score_record("a", 1, 3, 0.6)]
    rnn = [make_score_record("a", 1, 3, 0.0)]
    report = improvement_rate(arnn, rnn)
    assert report.excluded_zero["bleu1"] == 1
    assert np.isnan(report.per_gm[(1, 3)]["bleu1"])


def test_improvement_requires_matching_keys():
    with pytest.raises(ValueError, match="keyed identically"):
        improvement_rate([make_score_record("a", 1, 3, 0.5)], [make_score_record("b", 1, 3, 0.5)])


def test_improvement_per_m_min_max_over_g():
    arnn = [make_score_record("a", 1, 4, 0.6), make_score_record("a", 2, 4, 0.5)]
    rnn = [make_score_record("a", 1, 4, 0.5), make_score_record("a", 2, 4, 0.5)]
    report = improvement_rate(arnn, rnn)
    avg, mn, mx = report.per_m[4]["meteor"]
    assert (mn, mx) == (pytest.approx(1.0), pytest.approx(1.2))
    assert avg == pytest.approx(1.1)
    # random records, zero baselines included, against a brute-force table
    rng = np.random.default_rng(0)
    keys = [(f"t{i}", g, int(m)) for i, m in enumerate(rng.integers(2, 12, 60)) for g in range(1, m)]

    def records():
        return [make_score_record(t, g, m, float(rng.choice([0.0, 0.5, rng.random()]))) for t, g, m in keys]

    arnn, rnn = records(), records()
    report = improvement_rate(arnn, rnn)
    ratios = {}
    for a, r in zip(arnn, rnn):
        if r.mean.bleu1:
            ratios.setdefault((a.g, a.m), []).append(a.mean.bleu1 / r.mean.bleu1)
    assert list(report.per_m) == sorted({m for _, _, m in keys})
    for m, per_score in report.per_m.items():
        cells = [float(np.mean(ratios[g, m])) for g in range(1, m) if (g, m) in ratios]
        expect = (float(np.mean(cells)), min(cells), max(cells)) if cells else (float("nan"),) * 3
        for name in ScoreVector.NAMES:
            assert list(map(repr, per_score[name])) == list(map(repr, expect))


# ---------------------------------------------------------------------------
# files


def test_score_file_roundtrip_and_determinism(tmp_path, memorized_model):
    records, _ = evaluate_records(
        [record("a", [1, 2, 3, 4]), record("b", [2, 3, 4])], memorized_model, None, master_seed=3, k=3
    )
    p1 = tmp_path / "one.tsv"
    p2 = tmp_path / "two.tsv"
    write_scores(p1, records)
    write_scores(p2, records)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = read_scores(p1)
    assert [(r.trip_id, r.g, r.m) for r in loaded] == [(r.trip_id, r.g, r.m) for r in records]
    for a, b in zip(loaded, records):
        assert a.mean == b.mean


@pytest.mark.parametrize("fields", [7, 9])
def test_score_file_rejects_wrong_field_count(tmp_path, fields):
    path = tmp_path / "scores.tsv"
    write_scores(path, [make_score_record("a", 1, 3, 0.5)])
    header, row = path.read_text().splitlines()
    row = "\t".join((row.split("\t") + ["0.5"])[:fields])
    path.write_text(f"{header}\n{row}\n")
    with pytest.raises(ValueError, match=f"{path}:2: expected 8 tab-separated fields, got {fields}"):
        read_scores(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        (1, "two", "field g='two' is not int"),
        (2, "3.5", "field m='3.5' is not int"),
        (3, "high", "field bleu1='high' is not float"),
        (7, "1.5", "score out of range: 1.5"),
    ],
    ids=["non-numeric-g", "non-integer-m", "non-numeric-score", "score-out-of-range"],
)
def test_score_file_rejects_bad_value_naming_file_and_line(tmp_path, field, value, message):
    path = tmp_path / "scores.tsv"
    write_scores(path, [make_score_record("a", 1, 3, 0.5)])
    header, row = path.read_text().splitlines()
    bad = row.split("\t")
    bad[0] = "b"  # a task of its own, so that the value is the row's one fault
    bad[field] = value
    path.write_text(f"{header.replace('rows=1', 'rows=2')}\n{row}\n" + "\t".join(bad) + "\n")  # the bad row on line 3
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: {message}")):
        read_scores(path)


def test_score_file_rejects_repeated_task_naming_file_and_line(tmp_path):
    # improvement_rate would keep only the last such row, aggregate_by_length both
    path = tmp_path / "scores.tsv"
    write_scores(path, [make_score_record("a", 1, 3, 0.5), make_score_record("a", 2, 3, 0.25)])
    header, first, second = path.read_text().splitlines()
    repeat = first.replace("0.5", "0.75")
    path.write_text(f"{header.replace('rows=2', 'rows=3')}\n{first}\n{second}\n{repeat}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: repeated trip_id 'a' and g 1, first on line 2")):
        read_scores(path)


@pytest.mark.parametrize("text", ["", "trip_id\tg\tm\n"], ids=["empty", "foreign-header"])
def test_score_file_rejects_foreign_header_naming_file(tmp_path, text):
    path = tmp_path / "scores.tsv"
    path.write_text(text)
    version = repr(text.split("\t")[0])
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: unsupported version {version}, expected scores-v1")):
        read_scores(path)


def test_derive_seed_stable():
    assert derive_seed(1, "t", 1, 0) == derive_seed(1, "t", 1, 0)
    assert derive_seed(1, "t", 1, 0) != derive_seed(1, "t", 1, 1)
    assert derive_seed(1, "t", 1, 0) != derive_seed(2, "t", 1, 0)
    # SplitMix64's output number candidate + 1 from the blake2b hash of the task, in plain ints
    task = int.from_bytes(hashlib.blake2b(b"7:trip_3:12", digest_size=8).digest(), "big")
    assert derive_seed(7, "trip_3", 12, 41) == splitmix64_oracle(task + 42 * GOLDEN_GAMMA)
    assert derive_seed(7, "trip_3", 12, 0) == splitmix64_oracle(task + GOLDEN_GAMMA)
    assert 0 <= derive_seed(2**70, "t", 1, 2**64 - 2) < 2**64


def test_generate_seeds_every_candidate_with_derive_seed(memorized_model, monkeypatch):
    forks = []
    monkeypatch.setattr(evaluation, "sample_forks", lambda model, trips, traffic, fs: forks.extend(fs))
    tasks = [EvalTask(trip, (START, 1, 2, 3, 4, END), 0.0, g=g, k=k)
             for trip, g, k in (("a", 1, 5), ("a", 3, 12), ("b:7", 2, 1), ("c", 1, 10))]
    evaluation._generate(tasks, memorized_model, None, master_seed=11)
    assert [list(f.seeds) for f in forks] == [[derive_seed(11, t.trip_id, t.g, i) for i in range(t.k)] for t in tasks]
