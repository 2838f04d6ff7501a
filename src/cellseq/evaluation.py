"""Prefix-split evaluation of trained generators.

Every test sequence yields one task per given-prefix length g. A task
generates k candidate continuations with independent seeded streams,
scores each against the reference continuation, and keeps the mean of the
five scores. ``evaluate_records`` takes the sequences in blocks of
``models.MEAN_LOSS_CHUNK``; it generates the candidates of all tasks of a
block in one batched pass (``models.sample_forks``: each sequence
teacher-forced once, every task's k rows forked from the state after its
prefix and sampled in a pool of at most ``models.ROW_CAP`` slots, refilled
in task order as rows end, each attention row against its own sequence's
features and each candidate with the stream of ``default_rng`` of its
seed), and only then scores them. ``run_task`` is the one-task case.
Each task prepares its reference continuation once (``metrics._Reference``:
its n-gram counts and cell positions) and scores its candidates against it.
Trained models repeat candidates within a task, so each distinct
continuation is scored once and its scores are reused for its repeats; the
per-candidate scores and their mean are the same as scoring every
candidate. Aggregations by original sequence length m and the
attention-vs-baseline improvement ratio per (g, m) mirror how the models
are compared.
"""
from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import models
from .corpus import SequenceRecord, TrafficLookup
from .metrics import ScoreVector, _Reference
from .models import Fork, RnnModel, default_max_len, sample_forks
from .tokens import Token, Vocab, strip_virtual

SEED_MIXING = "blake2b64(master:trip_id:g:candidate)"
SCORE_NAMES = ScoreVector.NAMES


@dataclass(frozen=True)
class EvalTask:
    trip_id: str
    tokens: tuple[Token, ...]
    start_time: float
    g: int
    k: int

    def __post_init__(self):
        m = len(self.tokens) - 2
        if not 1 <= self.g < m:
            raise ValueError(f"need 1 <= g < m, got g={self.g}, m={m}")
        if self.k < 1:
            raise ValueError("k must be >= 1")


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
    skipped_unknown_cell: int = 0
    unterminated: int = 0
    candidates: int = 0
    distinct_candidates: int = 0  # summed per task: what was scored
    alignment_fallbacks: int = 0  # summed per task: scored with an inexact METEOR alignment
    generate_s: float = 0.0  # wall time sampling the candidates
    score_s: float = 0.0  # wall time scoring them


def make_tasks(
    records: Sequence[SequenceRecord],
    g_policy: str | Iterable[int] = "all",
    k: int = 100,
) -> tuple[list[EvalTask], int]:
    """One task per (sequence, g). Default policy: every g in 1..m-1.

    Sequences with fewer than two interior cells cannot be split and are
    skipped; the second return value counts them.
    """
    tasks: list[EvalTask] = []
    skipped = 0
    for rec in records:
        m = rec.m
        if m < 2:
            skipped += 1
            continue
        if g_policy == "all":
            gs = range(1, m)
        else:
            gs = [g for g in g_policy if 1 <= g < m]
        for g in gs:
            tasks.append(EvalTask(rec.trip_id, rec.tokens, rec.start_time, g, k))
    return tasks, skipped


def derive_seed(master_seed: int, trip_id: str, g: int, candidate: int) -> int:
    """Stable 64-bit per-candidate seed from the task coordinates."""
    key = f"{master_seed}:{trip_id}:{g}:{candidate}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def run_task(
    task: EvalTask,
    model: RnnModel,
    traffic_lookup: TrafficLookup | None,
    master_seed: int,
) -> ScoreRecord:
    """Generate k candidates and average their scores: the one-task case of
    ``evaluate_records``'s batched pass.

    The candidate continuation is everything generated after the prefix,
    virtual tokens removed; candidates that hit the length cap are scored
    as-is and counted. Each distinct continuation is scored once; ``raw``
    still holds one score vector per candidate, in candidate order. The
    distinct continuations whose METEOR alignment search hit its budget
    are counted too.
    """
    (rows,) = _generate([task], model, traffic_lookup, master_seed)
    return _score(task, rows, model.vocab)


def _generate(
    tasks: Sequence[EvalTask], model: RnnModel, traffic_lookup: TrafficLookup | None, master_seed: int
) -> list[list[tuple[int, ...]]]:
    """The sampled ids of every task's candidates, from one batched pass in
    which each distinct sequence is teacher-forced once."""
    trips: dict[tuple, int] = {}
    forks = []
    for task in tasks:
        trip = trips.setdefault((task.trip_id, task.tokens, task.start_time), len(trips))
        seeds = [derive_seed(master_seed, task.trip_id, task.g, i) for i in range(task.k)]
        forks.append(Fork(trip, task.g + 1, seeds, default_max_len(len(task.tokens))))
    traffic = None
    if model.kind == "arnn" and trips:
        if traffic_lookup is None:
            raise ValueError("traffic lookup required for the attention model")
        traffic = [traffic_lookup.window(start_time) for _, _, start_time in trips]
    return sample_forks(model, [tokens for _, tokens, _ in trips], traffic, forks)


def _score(task: EvalTask, rows: Sequence[tuple[int, ...]], vocab: Vocab) -> ScoreRecord:
    """Score one task's candidates (sampled ids, in candidate order) against
    its reference, prepared once."""
    reference = _Reference(strip_virtual(task.tokens[task.g + 1 : -1]))
    scored: dict[tuple[Token, ...], ScoreVector] = {}
    by_ids: dict[tuple[int, ...], ScoreVector] = {}
    raw = []
    unterminated = 0
    for ids in rows:
        if ids not in by_ids:
            continuation = tuple(strip_virtual(vocab.decode(ids)))
            if continuation not in scored:
                scored[continuation] = reference.score(continuation)
            by_ids[ids] = scored[continuation]
        raw.append(by_ids[ids])
        if ids[-1] != vocab.end_id:
            unterminated += 1
    # one contiguous row per score name: each row is summed in the order in
    # which np.mean sums a list of that score alone, so the means equal it
    columns = np.ascontiguousarray(np.array([r.as_tuple() for r in raw]).T)
    mean = ScoreVector(*columns.mean(axis=1).tolist())
    return ScoreRecord(
        trip_id=task.trip_id,
        g=task.g,
        m=len(task.tokens) - 2,
        mean=mean,
        raw=tuple(raw),
        unterminated=unterminated,
        distinct=len(scored),
        alignment_fallbacks=sum(not v.meteor_exact for v in scored.values()),
    )


def evaluate_records(
    records: Sequence[SequenceRecord],
    model: RnnModel,
    traffic_lookup: TrafficLookup | None,
    master_seed: int,
    k: int = 100,
    g_policy: str | Iterable[int] = "all",
) -> tuple[list[ScoreRecord], EvalDiagnostics]:
    """Score every task for the given sequences, in deterministic task order:
    per block of sequences, all candidates are generated in one batched
    pass, then scored."""
    diag = EvalDiagnostics()
    usable = []
    for rec in records:
        if any(t not in model.vocab for t in rec.tokens):
            diag.skipped_unknown_cell += 1
            continue
        usable.append(rec)
    tasks, diag.skipped_short = make_tasks(usable, g_policy=g_policy, k=k)
    tasks.sort(key=lambda t: (t.trip_id, t.g))
    # a block of sequences at a time, so that sampled candidates wait for
    # scoring in bounded memory
    by_trip = [list(group) for _, group in itertools.groupby(tasks, key=lambda t: t.trip_id)]
    out = []
    for lo in range(0, len(by_trip), models.MEAN_LOSS_CHUNK):
        block = [task for group in by_trip[lo : lo + models.MEAN_LOSS_CHUNK] for task in group]
        started = time.perf_counter()
        sampled = _generate(block, model, traffic_lookup, master_seed)
        scoring = time.perf_counter()
        out += [_score(task, rows, model.vocab) for task, rows in zip(block, sampled)]
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
    per_m: dict[int, dict[str, tuple[float, float, float]]] = {}
    ms = sorted({m for _, m in per_gm})
    for m in ms:
        per_m[m] = {}
        for name in SCORE_NAMES:
            vals = [
                per_gm[(g, mm)][name]
                for (g, mm) in per_gm
                if mm == m and not np.isnan(per_gm[(g, mm)][name])
            ]
            if vals:
                per_m[m][name] = (float(np.mean(vals)), float(np.min(vals)), float(np.max(vals)))
            else:
                per_m[m][name] = (float("nan"),) * 3
    return ImprovementReport(per_gm=per_gm, per_m=per_m, excluded_zero=excluded)


# ---------------------------------------------------------------------------
# score files


def write_scores(path: str | Path, records: Sequence[ScoreRecord]) -> None:
    """Delimited score rows sorted by (trip_id, g); byte-stable given the data."""
    lines = ["trip_id\tg\tm\t" + "\t".join(SCORE_NAMES)]
    for rec in sorted(records, key=lambda r: (r.trip_id, r.g)):
        scores = "\t".join(repr(getattr(rec.mean, name)) for name in SCORE_NAMES)
        lines.append(f"{rec.trip_id}\t{rec.g}\t{rec.m}\t{scores}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_scores(path: str | Path) -> list[ScoreRecord]:
    """The rows of a ``write_scores`` file; a malformed row, or a second row
    for one (trip_id, g), is rejected with its ``path:line``."""
    lines = Path(path).read_text().splitlines()
    expected = "trip_id\tg\tm\t" + "\t".join(SCORE_NAMES)
    if not lines or lines[0] != expected:
        raise ValueError(f"{path}:1: unsupported score file header")
    out = []
    first_line: dict[tuple[str, int], int] = {}  # (trip_id, g) -> the line that holds it
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3 + len(SCORE_NAMES):
            raise ValueError(f"{path}:{lineno}: expected {3 + len(SCORE_NAMES)} tab-separated fields, "
                             f"got {len(parts)}")
        try:
            rec = ScoreRecord(parts[0], int(parts[1]), int(parts[2]), ScoreVector(*map(float, parts[3:])))
        except ValueError as exc:  # a non-numeric field or a score out of range
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        first = first_line.setdefault((rec.trip_id, rec.g), lineno)
        if first != lineno:
            raise ValueError(f"{path}:{lineno}: repeated trip_id {rec.trip_id!r} and g {rec.g}, "
                             f"first on line {first}")
        out.append(rec)
    return out


def write_aggregates(path: str | Path, agg: dict[int, dict[str, Stats]]) -> None:
    lines = ["m\tscore\tcount\tmean\tq1\tmedian\tq3\tmin\tmax"]
    for m, per_score in agg.items():
        for name in SCORE_NAMES:
            s = per_score[name]
            lines.append(
                f"{m}\t{name}\t{s.count}\t{s.mean!r}\t{s.q1!r}\t{s.median!r}\t{s.q3!r}\t{s.min!r}\t{s.max!r}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def write_improvement(path_gm: str | Path, path_m: str | Path, report: ImprovementReport) -> None:
    lines = ["g\tm\t" + "\t".join(SCORE_NAMES)]
    for (g, m), per_score in report.per_gm.items():
        vals = "\t".join(repr(per_score[name]) for name in SCORE_NAMES)
        lines.append(f"{g}\t{m}\t{vals}")
    Path(path_gm).write_text("\n".join(lines) + "\n")

    lines = ["m\tscore\tavg\tmin\tmax"]
    for m, per_score in report.per_m.items():
        for name in SCORE_NAMES:
            avg, mn, mx = per_score[name]
            lines.append(f"{m}\t{name}\t{avg!r}\t{mn!r}\t{mx!r}")
    Path(path_m).write_text("\n".join(lines) + "\n")
