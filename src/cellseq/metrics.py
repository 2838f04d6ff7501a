"""Sequence similarity scores for generated cell sequences.

BLEU-n here uses clipped modified n-gram precision with a plain length-ratio
brevity penalty min(1, L_gen/L_ref) and no smoothing: any zero precision
zeroes the score. METEOR builds an exact-match alignment (most mappings,
then fewest crossings), takes the 1:9 precision/recall harmonic mean, and
applies the cubic fragmentation penalty 0.5 * (chunks / mapped)^3.

Virtual #start/#end markers are stripped before scoring; only real cells
are compared. ``score_vector`` computes P_1..P_4 once per pair and builds
BLEU-1..4 from them through the same helper as ``bleu_n``, so its scores
equal the single-score functions bit for bit.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .tokens import Token, strip_virtual

# Exhaustive search over same-token occurrence choices is exact up to this
# many combinations; beyond it a deterministic beam takes over.
_EXACT_ALIGNMENT_CAP = 20000
_BEAM_WIDTH = 512


@dataclass(frozen=True)
class Alignment:
    """Injective mapping candidate position -> reference position.

    ``pairs`` is sorted by candidate position. ``crossings`` counts pairs of
    mappings that intersect; ``chunks`` counts maximal runs of mappings that
    are adjacent in both sequences.
    """

    pairs: tuple[tuple[int, int], ...]
    crossings: int
    chunks: int

    @property
    def matched(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class ScoreVector:
    bleu1: float
    bleu2: float
    bleu3: float
    bleu4: float
    meteor: float

    NAMES = ("bleu1", "bleu2", "bleu3", "bleu4", "meteor")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.bleu1, self.bleu2, self.bleu3, self.bleu4, self.meteor)

    def __post_init__(self):
        for v in self.as_tuple():
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"score out of range: {v}")


def _ngrams(tokens: Sequence[Token], n: int) -> list[tuple[Token, ...]]:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def modified_precision(cand: Sequence[Token], ref: Sequence[Token], n: int) -> float:
    """Clipped n-gram precision: counts in the candidate are capped by the
    reference counts; denominator is the candidate n-gram count."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cand = strip_virtual(cand)
    ref = strip_virtual(ref)
    if len(cand) < n:
        return 0.0
    counts = Counter(_ngrams(cand, n))
    ref_counts = Counter(_ngrams(ref, n))
    clipped = sum(min(c, ref_counts[g]) for g, c in counts.items())
    return clipped / sum(counts.values())


def bleu_n(cand: Sequence[Token], ref: Sequence[Token], n: int) -> float:
    """Length-ratio brevity penalty times the geometric mean of P_1..P_n."""
    if not 1 <= n <= 4:
        raise ValueError("n must be in 1..4")
    cand = strip_virtual(cand)
    ref = strip_virtual(ref)
    if not cand or not ref:
        return 0.0
    return _bleu([modified_precision(cand, ref, i) for i in range(1, n + 1)], len(cand), len(ref))


def _bleu(precisions: Sequence[float], cand_len: int, ref_len: int) -> float:
    """BLEU-n from P_1..P_n (n = len(precisions)) of a non-empty candidate
    and reference: zero if any precision is, else the brevity penalty times
    the n-th root of the product."""
    if any(p == 0.0 for p in precisions):
        return 0.0
    geo = 1.0
    for p in precisions:
        geo *= p
    geo **= 1.0 / len(precisions)
    penalty = min(1.0, cand_len / ref_len)
    return penalty * geo


def _count_crossings(pairs: Sequence[tuple[int, int]]) -> int:
    # pairs sorted by candidate index; a crossing is an inversion in the
    # reference indices
    count = 0
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            if pairs[a][1] > pairs[b][1]:
                count += 1
    return count


def _count_chunks(pairs: Sequence[tuple[int, int]]) -> int:
    # a chunk continues while both sides stay adjacent: candidate positions
    # consecutive and reference positions neighbouring
    if not pairs:
        return 0
    chunks = 1
    for (i1, j1), (i2, j2) in zip(pairs, pairs[1:]):
        if not (i2 == i1 + 1 and abs(j2 - j1) == 1):
            chunks += 1
    return chunks


def _token_blocks(cand: Sequence[Token], ref: Sequence[Token]) -> list[list[tuple[tuple[int, int], ...]]]:
    """Per-token alternatives for a maximum-cardinality matching.

    Within one token, chosen occurrences pair up in increasing order (any
    same-token crossing can be uncrossed without penalty), so the choice per
    token reduces to which occurrences participate on each side.
    """
    cand_pos: dict[Token, list[int]] = {}
    ref_pos: dict[Token, list[int]] = {}
    for i, t in enumerate(cand):
        cand_pos.setdefault(t, []).append(i)
    for j, t in enumerate(ref):
        ref_pos.setdefault(t, []).append(j)

    blocks = []
    for t in cand_pos:  # insertion order: first candidate occurrence
        if t not in ref_pos:
            continue
        cs, rs = cand_pos[t], ref_pos[t]
        k = min(len(cs), len(rs))
        alts = [
            tuple(zip(csel, rsel))
            for csel in itertools.combinations(cs, k)
            for rsel in itertools.combinations(rs, k)
        ]
        blocks.append(alts)
    return blocks


def meteor_align(cand: Sequence[Token], ref: Sequence[Token]) -> Alignment:
    """Maximum-cardinality exact-match alignment with fewest crossings.

    Ties are broken by the lexicographically smallest pair list (leftmost
    candidate and reference occurrences first). Exact while the number of
    occurrence combinations stays below a cap; degenerate inputs with many
    repeated tokens fall back to a deterministic beam.
    """
    cand = strip_virtual(cand)
    ref = strip_virtual(ref)
    blocks = _token_blocks(cand, ref)
    if not blocks:
        return Alignment(pairs=(), crossings=0, chunks=0)

    total = 1
    for alts in blocks:
        total *= len(alts)

    def keyed(pairs: tuple[tuple[int, int], ...]) -> tuple[int, tuple[tuple[int, int], ...]]:
        return (_count_crossings(pairs), pairs)

    if total <= _EXACT_ALIGNMENT_CAP:
        best = None
        for combo in itertools.product(*blocks):
            pairs = tuple(sorted(p for block in combo for p in block))
            key = keyed(pairs)
            if best is None or key < best:
                best = key
    else:
        states: list[tuple[tuple[int, int], ...]] = [()]
        for alts in blocks:
            merged = [
                tuple(sorted(state + block)) for state in states for block in alts
            ]
            merged.sort(key=keyed)
            states = merged[:_BEAM_WIDTH]
        best = min(keyed(s) for s in states)

    crossings, pairs = best
    return Alignment(pairs=pairs, crossings=crossings, chunks=_count_chunks(pairs))


def meteor(cand: Sequence[Token], ref: Sequence[Token]) -> float:
    """Harmonic-mean score with recall weighted 9:1 over precision, reduced
    by the cubic fragmentation penalty. Zero when nothing matches."""
    cand = strip_virtual(cand)
    ref = strip_virtual(ref)
    if not cand or not ref:
        return 0.0
    alignment = meteor_align(cand, ref)
    matched = alignment.matched
    if matched == 0:
        return 0.0
    precision = matched / len(cand)
    recall = matched / len(ref)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (alignment.chunks / matched) ** 3
    return f_mean * (1.0 - penalty)


def score_vector(cand: Sequence[Token], ref: Sequence[Token]) -> ScoreVector:
    """All five scores for one candidate/reference pair.

    Strips the virtual markers once and computes P_1..P_4 once; BLEU-n takes
    the first n of them, so each score equals ``bleu_n``/``meteor`` bit for bit.
    """
    cand = strip_virtual(cand)
    ref = strip_virtual(ref)
    if not cand or not ref:
        bleus = [0.0] * 4
    else:
        precisions = [modified_precision(cand, ref, n) for n in range(1, 5)]
        bleus = [_bleu(precisions[:n], len(cand), len(ref)) for n in range(1, 5)]
    return ScoreVector(*bleus, meteor=meteor(cand, ref))
