"""Correctness gate: scores against the brute-force oracles in
``tests/oracles.py``, ranges, and the input properties the checks see.

BLEU-1..4 is checked on every scored pair. METEOR is checked only where the
oracle's exhaustive recursion stays small (BRUTE_FORCE_LIMIT branches), which
keeps it far below the alignment cap, so the gate never compares METEOR with
the beam search's own output.
"""
from __future__ import annotations

import importlib.util
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cellseq import evaluation, models

TOLERANCE = 1e-12
BRUTE_FORCE_LIMIT = 4096
EXACT_CAP = 20000  # metrics._EXACT_ALIGNMENT_CAP: above it METEOR falls back to a beam
BEAM_WIDTH = 512  # metrics._BEAM_WIDTH


@dataclass
class Outcome:
    """Operations attempted and failed, with a message per failure kind."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, n: int, bad: int = 0, message: str = "") -> None:
        """Count n attempted operations, of which ``bad`` failed."""
        self.attempted += n
        self.fail(bad, message)

    def fail(self, bad: int, message: str = "") -> None:
        """Count failures of operations already counted as attempted."""
        self.failed += bad
        if bad and message not in self.messages and len(self.messages) < 20:
            self.messages.append(message)


def strip(tokens) -> list:
    return [t for t in tokens if isinstance(t, int)]


def alignment_combos(cand, ref) -> int:
    """Occurrence combinations the METEOR alignment search faces: for each
    shared token with a and b occurrences, C(a, k) * C(b, k), k = min(a, b)."""
    cc, rc = Counter(strip(cand)), Counter(strip(ref))
    total = 1
    for tok, a in cc.items():
        b = rc.get(tok, 0)
        if b:
            k = min(a, b)
            total *= math.comb(a, k) * math.comb(b, k)
    return total


def beam_estimate(cand, ref) -> tuple[int, int]:
    """Estimated work and peak list size of METEOR's beam search above
    EXACT_CAP. Per token block, in the order ``metrics.meteor_align`` takes
    them, the beam builds a list of the states kept (at most BEAM_WIDTH)
    times the block's alternatives. Work sums those lists, each entry
    costing a crossing count quadratic in the pairs placed so far; it
    predicts the beam's time within a factor of two. The size in bytes is
    that of the longest list, each entry holding the pairs placed so far
    (8 bytes a pair) and its sort key (about 96 bytes more)."""
    cand, ref = strip(cand), strip(ref)
    cc, rc = Counter(cand), Counter(ref)
    states, placed, work, largest = 1, 0, 0, 0
    for tok in dict.fromkeys(t for t in cand if t in rc):  # first candidate occurrence order
        k = min(cc[tok], rc[tok])
        entries = states * math.comb(cc[tok], k) * math.comb(rc[tok], k)
        placed += k
        work += entries * (placed * placed + placed)
        largest = max(largest, entries * (8 * placed + 96))
        states = min(BEAM_WIDTH, entries)
    return work, largest


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("perfbench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def brute_force_size(cand, ref) -> int:
    """Leaves of the oracle's recursion: each candidate position maps to one
    of its equal reference positions or stays unmapped."""
    size = 1
    for tok in cand:
        size *= 1 + ref.count(tok)
        if size > BRUTE_FORCE_LIMIT:
            break
    return size


class PairChecker:
    """Compares score vectors with the oracles, memoized per distinct pair."""

    def __init__(self, oracles):
        self.oracles = oracles
        self.memo: dict[tuple, tuple[bool, bool]] = {}
        self.meteor_checked = 0

    def ok(self, cand, ref, sv) -> bool:
        key = (tuple(cand), tuple(ref), sv.as_tuple())
        if key not in self.memo:
            values = sv.as_tuple()
            good = all(0.0 <= v <= 1.0 and math.isfinite(v) for v in values)
            for n in (1, 2, 3, 4):
                good = good and abs(values[n - 1] - self.oracles.bleu_oracle(cand, ref, n)) <= TOLERANCE
            meteor_checked = brute_force_size(cand, ref) <= BRUTE_FORCE_LIMIT
            if meteor_checked:
                good = good and abs(values[4] - self.oracles.meteor_oracle(cand, ref)) <= TOLERANCE
            self.memo[key] = (good, meteor_checked)
        good, meteor_checked = self.memo[key]
        self.meteor_checked += meteor_checked
        return good


def combo_summary(combos) -> dict:
    arr = np.asarray(combos, dtype=float)
    if arr.size == 0:
        return {"pairs": 0, "p50": 0.0, "p99": 0.0, "above_20000_share": 0.0}
    return {
        "pairs": int(arr.size),
        "p50": float(np.percentile(arr, 50)),
        "p99": float(np.percentile(arr, 99)),
        "above_20000_share": float(np.mean(arr > EXACT_CAP)),
    }


def check_revisit(pairs, scores, oracles, outcome: Outcome) -> dict:
    checker = PairChecker(oracles)
    bad = 0
    for (cand, ref, _, _), sv in zip(pairs, scores):
        if sv is not None and not checker.ok(cand, ref, sv):
            bad += 1
    outcome.fail(bad, "score differs from the oracle or leaves [0, 1]")
    return {"pairs_checked": len(pairs), "meteor_oracle_checked": checker.meteor_checked, "mismatches": bad}


def check_evaluate(state, seed: int, k: int, records_by_kind, oracles, outcome: Outcome) -> dict:
    """Regenerate every candidate of every task, as ``run_task`` does, check
    each scored pair, and measure the input properties of the candidates."""
    by_trip = {rec.trip_id: rec for rec in state.test}
    checker = PairChecker(oracles)
    props = {}
    for kind, records in records_by_kind.items():
        model = state.models[kind]
        bad_tasks = 0
        candidates = distinct = unterminated = sampled = 0
        combos = []
        for record in records:
            seq = by_trip[record.trip_id]
            prefix = list(seq.tokens[: record.g + 1])
            reference = list(seq.tokens[record.g + 1 : -1])
            traffic = state.corpus.lookup.window(seq.start_time) if kind == "arnn" else None
            seeds = [evaluation.derive_seed(seed, record.trip_id, record.g, i) for i in range(k)]
            results = models.generate_batch(model, prefix, seeds, models.default_max_len(len(seq.tokens)),
                                            traffic=traffic)
            conts = [strip(res.tokens[len(prefix):]) for res in results]
            good = len(record.raw) == len(conts) and all(
                checker.ok(cont, reference, sv) for cont, sv in zip(conts, record.raw)
            )
            mean_ok = all(
                abs(getattr(record.mean, name) - float(np.mean([getattr(r, name) for r in record.raw]))) <= TOLERANCE
                for name in evaluation.SCORE_NAMES
            )
            bad_tasks += not (good and mean_ok)
            candidates += len(conts)
            distinct += len({tuple(c) for c in conts})
            unterminated += sum(not res.terminated for res in results)
            sampled += sum(len(res.tokens) - len(prefix) for res in results)
            combos.extend(alignment_combos(c, reference) for c in conts)
        outcome.fail(bad_tasks, f"{kind}: a task's scores differ from the oracle or from their mean")
        props[kind] = {
            "tasks": len(records),
            "candidates": candidates,
            "distinct_share": distinct / candidates if candidates else 0.0,
            "unterminated_share": unterminated / candidates if candidates else 0.0,
            "tokens_sampled": sampled,
            "alignment_combos": combo_summary(combos),
        }
    props["meteor_oracle_checked"] = checker.meteor_checked
    return props
