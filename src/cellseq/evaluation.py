"""Prefix-split evaluation of trained generators.

Every test sequence yields one task per given-prefix length g. A task
generates k candidate continuations with independent seeded streams,
scores each against the reference continuation, and keeps the mean of the
five scores. ``evaluate_records`` takes the sequences in blocks of
``models.MEAN_LOSS_CHUNK``; it generates the candidates of all tasks of a
block in one batched pass (``models.sample_forks``: each sequence
teacher-forced once, every task's k rows forked from the state after its
prefix, each candidate drawing from the counter-based stream of its key, and
each distinct state (a task and the ids sampled so far) stepped once for
all the candidates that share it, at most ``models.ROW_CAP`` states at a
time), and only then scores them in one pass over the block
(``_score_block``). The pass returns the leaves of its generation tree, each
distinct sampled sequence of a task once, and each candidate's leaf; trained
models repeat candidates within a task, so leaves are few, and one
``np.unique`` over the leaves without their markers gives the distinct
continuations. Each is scored once, from arrays on the fast path of
``_fast_counts`` and by ``metrics.score_vector`` off it. The scores and
their means are those of ``metrics.score_vector`` on every candidate.
Aggregations by original sequence length m and the attention-vs-baseline
improvement ratio per (g, m) mirror how the models are compared.
"""
from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import models
from ._files import read_table, write_table
from .corpus import SequenceRecord, TrafficLookup
from .metrics import ScoreVector, _scores, score_vector
from .models import _GOLDEN, Fork, RnnModel, _mix64, default_max_len, sample_forks
from .tokens import Token, Vocab, strip_virtual

SEED_MIXING = ("key = splitmix64(blake2b64(master:trip_id:g) + (candidate + 1) * 0x9E3779B97F4A7C15); "
               "u = (splitmix64(key + position * 0x9E3779B97F4A7C15) >> 11) / 2**53")
SCORE_NAMES = ScoreVector.NAMES
SCORES_VERSION = "scores-v1"
AGGREGATES_VERSION = "aggregates-v1"
IMPROVEMENT_GM_VERSION = "improvement-gm-v1"
IMPROVEMENT_M_VERSION = "improvement-m-v1"


@dataclass(frozen=True)
class EvalTask:
    trip_id: str
    tokens: tuple[Token, ...]
    start_time: float
    g: int

    def __post_init__(self):
        m = len(self.tokens) - 2
        if not 1 <= self.g < m:
            raise ValueError(f"need 1 <= g < m, got g={self.g}, m={m}")


@dataclass(frozen=True)
class ScoreRecord:
    """Mean of the per-candidate scores for one (sequence, g) task."""

    trip_id: str
    g: int
    m: int
    mean: ScoreVector
    raw: tuple[ScoreVector, ...] | None = None
    unterminated: int = 0
    distinct: int = 0  # distinct continuations among the candidates
    alignment_fallbacks: int = 0  # distinct continuations whose METEOR alignment search hit its budget


@dataclass
class EvalDiagnostics:
    skipped_short: int = 0
    skipped_no_g: int = 0  # long enough to split, but the g policy lists no g below their m
    skipped_unknown_cell: int = 0
    skipped_at_cap: int = 0  # tasks, not sequences: the prefix fills default_max_len, so nothing can be sampled
    unterminated: int = 0
    candidates: int = 0
    distinct_candidates: int = 0  # summed per task: what was scored
    alignment_fallbacks: int = 0  # summed per task: scored with an inexact METEOR alignment
    generate_s: float = 0.0  # wall time sampling the candidates
    score_s: float = 0.0  # wall time scoring them


def make_tasks(
    records: Sequence[SequenceRecord],
    g_policy: str | Iterable[int] = "all",
) -> tuple[list[EvalTask], int, int]:
    """One task per (sequence, g). Default policy: every g in 1..m-1.

    Sequences with fewer than two interior cells cannot be split and are
    skipped; the second return value counts them. The third counts the
    longer sequences that still give no task, because an explicit policy
    lists no g in 1..m-1 for them.
    """
    tasks: list[EvalTask] = []
    short = no_g = 0
    for rec in records:
        m = rec.m
        if m < 2:
            short += 1
            continue
        if g_policy == "all":
            gs = range(1, m)
        else:
            gs = [g for g in g_policy if 1 <= g < m]
        if not gs:
            no_g += 1
        for g in gs:
            tasks.append(EvalTask(rec.trip_id, rec.tokens, rec.start_time, g))
    return tasks, short, no_g


def _seeds(master_seed: int, tasks: Sequence[tuple[str, int]], candidates: np.ndarray) -> np.ndarray:
    """``derive_seed`` of each candidate (a uint64 array) of each (trip_id,
    g) task, [tasks, candidates]: each task is hashed once, and the keys are
    one SplitMix64 expression from there."""
    digests = b"".join(hashlib.blake2b(f"{master_seed}:{trip_id}:{g}".encode(), digest_size=8).digest()
                       for trip_id, g in tasks)
    return _mix64(np.frombuffer(digests, ">u8").astype(np.uint64)[:, None] + (candidates + 1) * _GOLDEN)


def derive_seed(master_seed: int, trip_id: str, g: int, candidate: int) -> int:
    """Stable 64-bit stream key of a candidate: SplitMix64's output number
    ``candidate + 1`` from the 8-byte blake2b digest of
    ``master_seed:trip_id:g``."""
    return int(_seeds(master_seed, [(trip_id, g)], np.array([candidate], dtype=np.uint64))[0, 0])


def _generate(tasks: Sequence[EvalTask], model: RnnModel, traffic_lookup: TrafficLookup | None, master_seed: int,
              k: int):
    """The leaves (``sample_forks``) of the k candidates of every task, a
    fork each, from one batched pass in which each distinct sequence is
    teacher-forced once and each distinct sampled prefix of a task is
    stepped once."""
    trips: dict[tuple, int] = {}
    keys = _seeds(master_seed, [(task.trip_id, task.g) for task in tasks], np.arange(k, dtype=np.uint64))
    forks = [Fork(trips.setdefault((task.trip_id, task.tokens, task.start_time), len(trips)), task.g + 1,
                  seeds, default_max_len(len(task.tokens))) for task, seeds in zip(tasks, keys)]
    traffic = None
    if model.kind == "arnn" and trips:
        if traffic_lookup is None:
            raise ValueError("traffic lookup required for the attention model")
        traffic = [traffic_lookup.window(start_time) for _, _, start_time in trips]
    return sample_forks(model, [tokens for _, tokens, _ in trips], traffic, forks)


def _continuations(leaves: tuple[np.ndarray, np.ndarray, np.ndarray], n_tasks: int, end_id: int):
    """A block's distinct continuations, from the leaves of its tasks' forks
    (``sample_forks``, a fork per task): a row each of its task, then its ids
    without the markers (0 and 1) padded with 0, and its size; each
    candidate's row, [tasks, k]; and per task the candidates that did not
    end at #end. Leaves that differ only by a marker (an interior #start)
    merge into one row."""
    ids, task, leaf = leaves
    real = ids > 1  # neither a marker nor padding
    pad = np.zeros((len(ids), 1 + real.sum(axis=1).max()), np.int64)
    pad[:, 0] = task
    pad[np.nonzero(real)[0], np.cumsum(real, axis=1)[real]] = ids[real]
    pad, inverse = np.unique(pad, axis=0, return_inverse=True)
    last = ids[np.arange(len(ids)), np.count_nonzero(ids >= 0, axis=1) - 1]
    return (pad, np.count_nonzero(pad[:, 1:], axis=1), inverse.reshape(-1)[leaf].reshape(n_tasks, -1),
            (last != end_id)[leaf].reshape(n_tasks, -1).sum(axis=1))


def _fast_counts(pad: np.ndarray, refs: Sequence[Sequence[int]], n_ids: int):
    """Per continuation (a row of ``_continuations``) against its task's
    reference ids: whether it leaves the fast path, and on the fast path its
    n-grams in the reference for n = 1..4, [continuations, 4], and its
    METEOR chunks.

    A pair leaves the fast path when a cell the two share repeats on either
    side. Otherwise no count is clipped and the only alignment is fixed: an
    n-gram is in the reference where its cells sit at rising neighbouring
    reference positions, and a METEOR chunk goes on where matched neighbours
    map to neighbours. The masks below find both for all pairs at once."""
    ref_size = np.fromiter(map(len, refs), np.intp, len(refs))
    ref_task = np.repeat(np.arange(len(refs)), ref_size)
    ref_keys = ref_task * n_ids + np.fromiter(itertools.chain.from_iterable(refs), np.int64, ref_size.sum())
    order = np.argsort(ref_keys, kind="stable")  # by (task, cell), then position
    ref_keys, ref_pos = ref_keys[order], (np.arange(len(order)) - (np.cumsum(ref_size) - ref_size)[ref_task])[order]
    at, col = np.nonzero(pad[:, 1:])  # continuation and position of each cell
    keys = pad[at, 0] * n_ids + pad[at, 1 + col]
    lo = np.searchsorted(ref_keys, keys)  # the cell's first place in its task's reference, if it is there
    in_ref = np.searchsorted(ref_keys, keys, side="right") - lo
    hit, shared = in_ref > 0, np.sort(at[in_ref > 0] * len(ref_keys) + lo[in_ref > 0])
    slow = np.zeros(len(pad), bool)
    slow[at[in_ref > 1]] = True
    slow[shared[1:][shared[1:] == shared[:-1]] // len(ref_keys)] = True
    step = np.diff(ref_pos[np.minimum(lo, len(ref_keys) - 1)])  # between neighbours' reference positions
    del col, keys, lo, in_ref, shared  # freed before the masks allocate theirs
    both = hit[1:] & hit[:-1] & (at[1:] == at[:-1])
    link, run, found = both & (step == 1), hit, np.zeros((len(pad), 4), np.int64)
    for n in range(4):  # run: the n-gram at each position is in the reference
        run = run[:-1] & link[n - 1 :] if n else run
        found[:, n] = np.bincount(at[: len(run)][run], minlength=len(pad))
    return slow, found, found[:, 0] - np.bincount(at[:-1][both & (np.abs(step) == 1)], minlength=len(pad))


def _score_block(tasks: Sequence[EvalTask], leaves: tuple[np.ndarray, np.ndarray, np.ndarray],
                 vocab: Vocab) -> list[ScoreRecord]:
    """Score the k candidates of each of a block of tasks (the leaves of
    ``sample_forks``, a fork per task) against each task's reference, in one
    pass over the block's distinct continuations. A continuation is
    everything generated after the prefix, markers removed. Candidates that
    hit the length cap are scored as-is and counted, and so are the distinct
    continuations whose METEOR alignment search hit its budget. Pairs off
    the fast path (``_fast_counts``) are scored by ``score_vector``."""
    pad, size, continuation, unterminated = _continuations(leaves, len(tasks), vocab.end_id)
    task, refs = pad[:, 0], [vocab.encode(strip_virtual(t.tokens[t.g + 1 : -1])) for t in tasks]
    slow, found, chunks = _fast_counts(pad, refs, len(vocab))
    grams = size[:, None] - np.arange(4)
    precisions = np.divide(found, grams, out=np.zeros(grams.shape), where=grams > 0)
    # rows become lists one at a time, which keeps the peak of Python objects low
    counts = zip(task.tolist(), size.tolist(), map(np.ndarray.tolist, precisions), found[:, 0].tolist(),
                 chunks.tolist())
    vectors = [score_vector(pad[i, 1 : 1 + s].tolist(), refs[t]) if hard else _scores(s, len(refs[t]), p, m, c)
               for i, (hard, (t, s, p, m, c)) in enumerate(zip(slow.tolist(), counts))]
    # one contiguous row per task and score name: each is summed in the order
    # in which np.mean sums a list of that score alone, so the means equal it
    scores = np.fromiter(map(ScoreVector.as_tuple, vectors), (float, 5), len(vectors))
    means = np.ascontiguousarray(scores[continuation].transpose(0, 2, 1)).mean(axis=-1)
    distinct = np.bincount(task, minlength=len(tasks))
    fallbacks = np.bincount(task, [not v.meteor_exact for v in vectors], minlength=len(tasks))
    return [
        ScoreRecord(t.trip_id, t.g, len(t.tokens) - 2, ScoreVector(*mean), tuple(map(vectors.__getitem__, c)),
                    int(unt), int(d), int(f))
        for t, mean, c, unt, d, f in zip(tasks, means.tolist(), map(np.ndarray.tolist, continuation), unterminated,
                                         distinct, fallbacks)
    ]


def evaluate_records(
    records: Sequence[SequenceRecord],
    model: RnnModel,
    traffic_lookup: TrafficLookup | None,
    master_seed: int,
    k: int = 100,
    g_policy: str | Iterable[int] = "all",
) -> tuple[list[ScoreRecord], EvalDiagnostics]:
    """Score every task for the given sequences, k >= 1 candidates each, in
    deterministic task order: per block of sequences, all candidates are
    generated in one batched pass, then scored. Tasks whose prefix fills
    ``default_max_len`` are skipped and counted."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    usable = [rec for rec in records if all(t in model.vocab for t in rec.tokens)]
    diag = EvalDiagnostics(skipped_unknown_cell=len(records) - len(usable))
    tasks, diag.skipped_short, diag.skipped_no_g = make_tasks(usable, g_policy=g_policy)
    fit = sorted((t for t in tasks if t.g + 1 < default_max_len(len(t.tokens))), key=lambda t: (t.trip_id, t.g))
    tasks, diag.skipped_at_cap = fit, len(tasks) - len(fit)
    # a block of sequences at a time, so that sampled candidates wait for
    # scoring in bounded memory
    by_trip = [list(group) for _, group in itertools.groupby(tasks, key=lambda t: t.trip_id)]
    out = []
    for lo in range(0, len(by_trip), models.MEAN_LOSS_CHUNK):
        block = [task for group in by_trip[lo : lo + models.MEAN_LOSS_CHUNK] for task in group]
        started = time.perf_counter()
        leaves = _generate(block, model, traffic_lookup, master_seed, k)
        scoring = time.perf_counter()
        out += _score_block(block, leaves, model.vocab)
        diag.generate_s += scoring - started
        diag.score_s += time.perf_counter() - scoring
    for record in out:
        diag.unterminated += record.unterminated
        diag.candidates += len(record.raw)
        diag.distinct_candidates += record.distinct
        diag.alignment_fallbacks += record.alignment_fallbacks
    return out, diag


# ---------------------------------------------------------------------------
# aggregation


@dataclass(frozen=True)
class Stats:
    count: int
    mean: float
    q1: float
    median: float
    q3: float
    min: float
    max: float


def _quantile(sorted_vals: Sequence[float], q: float) -> float:
    # linear interpolation between order statistics at q*(n-1)
    n = len(sorted_vals)
    if n == 1:
        return float(sorted_vals[0])
    pos = q * (n - 1)
    lo = int(np.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return float(sorted_vals[lo] * (1.0 - frac) + sorted_vals[hi] * frac)


def summarize(values: Sequence[float]) -> Stats:
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("no values to summarize")
    return Stats(
        count=len(vals),
        mean=float(np.mean(vals)),
        q1=_quantile(vals, 0.25),
        median=_quantile(vals, 0.5),
        q3=_quantile(vals, 0.75),
        min=vals[0],
        max=vals[-1],
    )


def aggregate_by_length(records: Sequence[ScoreRecord]) -> dict[int, dict[str, Stats]]:
    """Distribution summaries of the mean scores, grouped by sequence length m."""
    if not records:
        raise ValueError("no records to aggregate")
    by_m: dict[int, list[ScoreRecord]] = {}
    for rec in records:
        by_m.setdefault(rec.m, []).append(rec)
    return {
        m: {name: summarize([getattr(r.mean, name) for r in group]) for name in SCORE_NAMES}
        for m, group in sorted(by_m.items())
    }


@dataclass
class ImprovementReport:
    """score_ARNN / score_RNN ratios keyed by (g, m) and summarized per m."""

    per_gm: dict[tuple[int, int], dict[str, float]]
    per_m: dict[int, dict[str, tuple[float, float, float]]]  # avg, min, max over g
    excluded_zero: dict[str, int]


def improvement_rate(
    arnn_records: Sequence[ScoreRecord], rnn_records: Sequence[ScoreRecord]
) -> ImprovementReport:
    """Elementwise ratio of matched records; zero baselines are excluded."""
    rnn_by_key = {(r.trip_id, r.g): r for r in rnn_records}
    arnn_by_key = {(r.trip_id, r.g): r for r in arnn_records}
    if set(rnn_by_key) != set(arnn_by_key):
        raise ValueError("record sets are not keyed identically")

    excluded = {name: 0 for name in SCORE_NAMES}
    cell_ratios: dict[tuple[int, int], dict[str, list[float]]] = {}
    for key, a_rec in arnn_by_key.items():
        r_rec = rnn_by_key[key]
        gm = (a_rec.g, a_rec.m)
        bucket = cell_ratios.setdefault(gm, {name: [] for name in SCORE_NAMES})
        for name in SCORE_NAMES:
            denom = getattr(r_rec.mean, name)
            if denom == 0.0:
                excluded[name] += 1
                continue
            bucket[name].append(getattr(a_rec.mean, name) / denom)

    per_gm = {
        gm: {name: float(np.mean(vals)) if vals else float("nan") for name, vals in bucket.items()}
        for gm, bucket in sorted(cell_ratios.items())
    }
    by_m: dict[int, dict[str, list[float]]] = {}  # per m and score, the ratios of its (g, m) cells by rising g
    for (_, m), ratios in per_gm.items():
        bucket = by_m.setdefault(m, {name: [] for name in SCORE_NAMES})
        for name, ratio in ratios.items():
            if not np.isnan(ratio):
                bucket[name].append(ratio)
    none = (float("nan"),) * 3
    per_m = {
        m: {name: (float(np.mean(v)), float(np.min(v)), float(np.max(v))) if v else none for name, v in bucket.items()}
        for m, bucket in sorted(by_m.items())
    }
    return ImprovementReport(per_gm=per_gm, per_m=per_m, excluded_zero=excluded)


# ---------------------------------------------------------------------------
# score files


def write_scores(path: str | Path, records: Sequence[ScoreRecord]) -> None:
    """Delimited score rows sorted by (trip_id, g); byte-stable given the data."""
    rows = [f"{rec.trip_id}\t{rec.g}\t{rec.m}\t" + "\t".join(repr(getattr(rec.mean, name)) for name in SCORE_NAMES)
            for rec in sorted(records, key=lambda r: (r.trip_id, r.g))]
    write_table(path, SCORES_VERSION, {"rows": len(rows)}, rows)


def read_scores(path: str | Path) -> list[ScoreRecord]:
    """The rows of a ``write_scores`` file; a malformed row, or a second row
    for one (trip_id, g), is rejected with its ``path:line``."""
    table = read_table(path, SCORES_VERSION, {})
    out = []
    columns = [("trip_id", str), ("g", int), ("m", int)] + [(name, float) for name in SCORE_NAMES]
    for i, (trip_id, g, m, *scores) in enumerate(table.parse(columns, key=[0, 1])):
        try:
            out.append(ScoreRecord(trip_id, g, m, ScoreVector(*scores)))
        except ValueError as exc:  # a score out of range
            raise table.error(i, str(exc)) from None
    return out


def write_aggregates(path: str | Path, agg: dict[int, dict[str, Stats]]) -> None:
    """One row per (m, score): its count, mean, quartiles, min and max."""
    rows = [f"{m}\t{name}\t" + "\t".join(map(repr, astuple(per_score[name])))
            for m, per_score in agg.items() for name in SCORE_NAMES]
    write_table(path, AGGREGATES_VERSION, {"rows": len(rows)}, rows)


def write_improvement(path_gm: str | Path, path_m: str | Path, report: ImprovementReport) -> None:
    """One row of ratios per (g, m) to ``path_gm``, and one row of their avg,
    min and max per (m, score) to ``path_m``."""
    rows = [f"{g}\t{m}\t" + "\t".join(repr(per_score[name]) for name in SCORE_NAMES)
            for (g, m), per_score in report.per_gm.items()]
    write_table(path_gm, IMPROVEMENT_GM_VERSION, {"rows": len(rows)}, rows)
    rows = [f"{m}\t{name}\t" + "\t".join(map(repr, per_score[name]))
            for m, per_score in report.per_m.items() for name in SCORE_NAMES]
    write_table(path_m, IMPROVEMENT_M_VERSION, {"rows": len(rows)}, rows)
