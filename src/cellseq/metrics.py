"""Sequence similarity scores for generated cell sequences.

BLEU-n here uses clipped modified n-gram precision with a plain length-ratio
brevity penalty min(1, L_gen/L_ref) and no smoothing: any zero precision
zeroes the score. METEOR takes the 1:9 precision/recall harmonic mean over
an exact-match alignment and applies the cubic fragmentation penalty
0.5 * (chunks / mapped)^3. The alignment has the most mappings, then the
fewest crossings, then the lexicographically smallest pair list. One
branch-and-bound search finds it. Its worst case is exponential, so it
stops after ``_SEARCH_BUDGET`` states; it then returns the best alignment
found, which has the most mappings but perhaps not the fewest crossings,
and marks it inexact (``Alignment.exact``, ``ScoreVector.meteor_exact``).
Pairs of random walks on a grid stay well below the budget; long
sequences that repeat many cells in unrelated orders reach it.

Virtual #start/#end markers are stripped before scoring; only real cells
are compared. Each public function strips its inputs and calls a private
core that takes stripped inputs. ``score_vector`` strips once, computes
P_1..P_4 once per pair and builds BLEU-1..4 from them through the same
helper as ``bleu_n``, so its scores equal the single-score functions bit
for bit.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .tokens import Token, strip_virtual


@dataclass(frozen=True)
class Alignment:
    """Injective mapping candidate position -> reference position.

    ``pairs`` is sorted by candidate position. ``crossings`` counts pairs of
    mappings that intersect; ``chunks`` counts maximal runs of mappings that
    are adjacent in both sequences. ``exact`` is False when the search
    stopped at its budget: the crossings are then the fewest it found.
    """

    pairs: tuple[tuple[int, int], ...]
    crossings: int
    chunks: int
    exact: bool = True

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
    meteor_exact: bool = field(default=True, repr=False)  # False if its alignment search hit the budget

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
    return _precision(strip_virtual(cand), strip_virtual(ref), n)


def _precision(cand: Sequence[Token], ref: Sequence[Token], n: int) -> float:
    """``modified_precision`` on inputs without markers."""
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
    return _bleu([_precision(cand, ref, i) for i in range(1, n + 1)], len(cand), len(ref))


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


def meteor_align(cand: Sequence[Token], ref: Sequence[Token]) -> Alignment:
    """Maximum-cardinality exact-match alignment with fewest crossings.

    Each token on both sides is matched min(occurrences in cand, occurrences
    in ref) times. Of those alignments the one with the fewest crossings is
    returned, ties broken by the lexicographically smallest pair list
    (leftmost candidate, then leftmost reference occurrence). If the search
    stops at ``_SEARCH_BUDGET`` states, the result has the most mappings and
    the fewest crossings found, and ``exact`` is False; see ``_align``.
    """
    return _align(strip_virtual(cand), strip_virtual(ref))


def _positions(tokens: Sequence[Token]) -> dict[Token, list[int]]:
    pos: dict[Token, list[int]] = {}
    for p, t in enumerate(tokens):
        pos.setdefault(t, []).append(p)
    return pos


_SEARCH_BUDGET = 20_000  # states entered per alignment, about 0.1 to 1 s of search


def _align(cand: Sequence[Token], ref: Sequence[Token]) -> Alignment:
    """``meteor_align`` on inputs without markers.

    In a fewest-crossing alignment the occurrences of a token pair up in
    increasing order on both sides, because uncrossing two same-token
    mappings removes at least one crossing. The search scans the shared
    candidate positions a left to right; its state is the bitmask of the
    reference positions used so far. Mapping a to b crosses each used
    position after b. A position may be skipped only while the later
    occurrences of its token can still make up the token's matches.

    The moves from a state are the matches by rising b, then the skip. That
    is the order of the pair lists, so taking the first move at every step
    gives the smallest pair list, the greedy leftmost alignment, which is
    the answer when it has no crossing. Otherwise a depth-first
    branch-and-bound takes the moves in that order and keeps a complete
    alignment only below the best crossings so far, so the last one kept is
    the smallest pair list of fewest crossings. The best starts one above
    the crossings of the greedy alignment or of a guided one (at each step
    the move of least crossings plus bound), whichever has fewer. A state is
    cut when it was entered before at no higher cost, or when its crossings
    plus a lower bound reach the best. The bound adds, for each token that
    still owes matches, the used positions after each of its last free
    reference positions, and for each two such tokens whose places left lie
    in one order on the candidate side and in the other on the reference
    side, every pair of their mappings.

    The benchmark pairs enter at most about 300 states, and 100-step random
    walks on grids of 16 to 100 cells against self-avoiding references at
    most about 14,000. The search is still exponential in the worst case:
    sequences that repeat many cells in unrelated orders, such as two
    random orders of 40 cells against a third, need far more. It stops
    after ``_SEARCH_BUDGET`` states and returns the best alignment found,
    marked inexact. Memory is bounded by the budget and the stack.
    """
    cand_pos, ref_pos = _positions(cand), _positions(ref)
    token = {}  # per shared token: its reference positions, their bits, its matches
    for t, cs in cand_pos.items():
        if t in ref_pos:
            bs = ref_pos[t]
            token[t] = (bs, sum(1 << b for b in bs), min(len(cs), len(bs)))
    later = {t: len(cand_pos[t]) for t in token}
    steps = []  # per shared position: a, the token's entry, its occurrences after a
    for a, t in enumerate(cand):
        if t in token:
            later[t] -= 1
            steps.append((a, *token[t], later[t]))
    blocks = [(*entry, cand_pos[t]) for t, entry in token.items()]

    def moves(s: int, mask: int) -> list[tuple[int | None, int, int]]:
        """(b, or None for the skip, the next mask, crossings added) of each
        move from step s, matches by rising b first."""
        a, bs, own, owe, after = steps[s]
        used = mask & own
        need = owe - used.bit_count()
        # past the token's last used position, leaving room for the matches
        # still owed; bit b is clear, so mask >> b counts the used positions after b
        out = [(b, mask | 1 << b, (mask >> b).bit_count())
               for b in bs[bisect_right(bs, used.bit_length() - 1) : len(bs) - need + 1]]
        if after >= need:
            out.append((None, mask, 0))
        return out

    def bound(s: int, mask: int) -> int:
        """Crossings that the mappings still owed from step s on must add."""
        if s == len(steps):
            return 0
        a, owed, spans = steps[s][0], 0, []  # spans: first and last place left on each side, matches owed
        for bs, own, owe, cs in blocks:
            used = mask & own
            need = owe - used.bit_count()
            if need:
                for b in bs[len(bs) - need :]:
                    owed += (mask >> b).bit_count()
                spans.append((cs[bisect_left(cs, a)], cs[-1], bs[bisect_right(bs, used.bit_length() - 1)], bs[-1], need))
        # two tokens whose places left are in one order on the candidate side
        # and in the other order on the reference side cross at every pair
        for x, (c0, c1, r0, r1, n) in enumerate(spans):
            for d0, d1, q0, q1, m in spans[x + 1 :]:
                if (c1 < d0 and r0 > q1) or (d1 < c0 and q0 > r1):
                    owed += n * m
        return owed

    def descend(guided: bool) -> tuple[int, tuple | None]:
        """Crossings and pairs of one alignment: the first move at each step,
        or the move of least crossings plus bound."""
        crossings, chain, mask = 0, None, 0
        for s in range(len(steps)):
            options = moves(s, mask)
            if guided and len(options) > 1:
                options.sort(key=lambda move: move[2] + bound(s + 1, move[1]))
            b, mask, crossed = options[0]
            crossings += crossed
            if b is not None:
                chain = (steps[s][0], b, chain)
        return crossings, chain

    first, first_chain = descend(False)
    if first:
        guided = descend(True)
        if guided[0] < first:
            first, first_chain = guided
    best, best_chain, exact = first + 1, first_chain, True
    seen: dict[tuple[int, int], int] = {}  # (step, mask) -> least crossings it was entered with
    stack = [(0, 0, 0, None)] if first else []  # step, mask, crossings so far, pairs as nested (a, b, rest)
    while stack:
        s, mask, cost, chain = stack.pop()
        if cost >= best:
            continue
        if s == len(steps):
            best, best_chain = cost, chain
            continue
        if seen.get((s, mask), math.inf) <= cost:
            continue
        if len(seen) >= _SEARCH_BUDGET:
            exact = False
            break
        seen[s, mask] = cost
        if cost + bound(s, mask) >= best:
            continue
        a = steps[s][0]
        for b, nxt, crossed in reversed(moves(s, mask)):  # popped in move order
            stack.append((s + 1, nxt, cost + crossed, chain if b is None else (a, b, chain)))

    pairs = []
    while best_chain is not None:
        a, b, best_chain = best_chain
        pairs.append((a, b))
    pairs = tuple(reversed(pairs))
    crossings = min(best, first)  # best is still first + 1 if the budget ran out before any leaf
    return Alignment(pairs=pairs, crossings=crossings, chunks=_count_chunks(pairs), exact=exact)


def meteor(cand: Sequence[Token], ref: Sequence[Token]) -> float:
    """Harmonic-mean score with recall weighted 9:1 over precision, reduced
    by the cubic fragmentation penalty. Zero when nothing matches."""
    return _meteor(strip_virtual(cand), strip_virtual(ref))[0]


def _meteor(cand: Sequence[Token], ref: Sequence[Token]) -> tuple[float, bool]:
    """``meteor`` on inputs without markers, and whether its alignment is
    exact."""
    if not cand or not ref:
        return 0.0, True
    alignment = _align(cand, ref)
    matched = alignment.matched
    if matched == 0:
        return 0.0, True
    precision = matched / len(cand)
    recall = matched / len(ref)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (alignment.chunks / matched) ** 3
    return f_mean * (1.0 - penalty), alignment.exact


def score_vector(cand: Sequence[Token], ref: Sequence[Token]) -> ScoreVector:
    """All five scores for one candidate/reference pair.

    Strips the virtual markers once and computes P_1..P_4 once; BLEU-n takes
    the first n of them, so each score equals ``bleu_n``/``meteor`` bit for bit.
    ``meteor_exact`` tells whether the METEOR alignment search finished.
    """
    cand = strip_virtual(cand)
    ref = strip_virtual(ref)
    if not cand or not ref:
        bleus = [0.0] * 4
    else:
        precisions = [_precision(cand, ref, n) for n in range(1, 5)]
        bleus = [_bleu(precisions[:n], len(cand), len(ref)) for n in range(1, 5)]
    meteor_score, exact = _meteor(cand, ref)
    return ScoreVector(*bleus, meteor=meteor_score, meteor_exact=exact)
