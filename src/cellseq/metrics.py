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

When every cell the two sides share occurs as often on one side as on the
other, no step of the search has a choice: the alignment that pairs each
cell's occurrences in order is the only one of fewest crossings, and is
returned without the search; it is exact.

Virtual #start/#end markers are stripped before scoring; only real cells
are compared. ``score_vector`` is the one pair scorer: P_1..P_4 in one pass
over the candidate's n-grams against the reference's counts (``_precisions``),
then the alignment (``_align``), and ``_scores`` turns those counts into the
five scores. Evaluation scores its fast-path pairs a block at a time from
the same counts, and its other pairs with ``score_vector``.
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


_ORDERS = 4  # BLEU-1..BLEU-4


def _ngrams(tokens: tuple[Token, ...]) -> list[tuple[Token, ...]]:
    """Every n-gram of ``tokens`` for n = 1.._ORDERS, as tuples."""
    size = len(tokens)
    return [tokens[i:j] for i in range(size) for j in range(i + 1, min(i + _ORDERS, size) + 1)]


def _precisions(cand: tuple[Token, ...], ref: tuple[Token, ...]) -> list[float]:
    """Clipped precisions P_1..P_4 of ``cand`` against ``ref``, from one pass
    over its n-grams of every order: an n-gram counts while the reference
    has occurrences of it left, which clips it at the reference count; the
    denominator is the candidate's count of n-grams of that order."""
    clipped, left = [0] * _ORDERS, dict(Counter(_ngrams(ref)))  # a plain dict is faster to update
    for gram in _ngrams(cand):
        if left.get(gram):
            left[gram] -= 1
            clipped[len(gram) - 1] += 1
    size = len(cand)
    return [c / (size - n) if size > n else 0.0 for n, c in enumerate(clipped)]


def _scores(size: int, ref_size: int, precisions: Sequence[float], matched: int, chunks: int,
            exact: bool = True) -> ScoreVector:
    """All five scores of a candidate of ``size`` cells against a reference
    of ``ref_size``, from its clipped precisions P_1..P_4 and its METEOR
    alignment's matches and chunks: each zero when either side is empty, and
    METEOR zero when nothing matches. The arguments are Python numbers, so
    that the n-th roots and the cube are Python's float ``**``: numpy's
    SIMD power may differ from it in the last bit."""
    if not size or not ref_size:
        return ScoreVector(0.0, 0.0, 0.0, 0.0, 0.0)
    brevity = min(1.0, size / ref_size)
    bleus, product = [], 1.0
    for n, p in enumerate(precisions, start=1):
        product *= p
        bleus.append(brevity * product ** (1.0 / n))
    if matched == 0:
        return ScoreVector(*bleus, meteor=0.0)
    precision = matched / size
    recall = matched / ref_size
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    fragmentation = 0.5 * (chunks / matched) ** 3
    return ScoreVector(*bleus, meteor=f_mean * (1.0 - fragmentation), meteor_exact=exact)


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


def _positions(tokens: Sequence[Token]) -> dict[Token, list[int]]:
    pos: dict[Token, list[int]] = {}
    for p, t in enumerate(tokens):
        pos.setdefault(t, []).append(p)
    return pos


_SEARCH_BUDGET = 20_000  # states entered per alignment, about 0.1 to 1 s of search


def _align(cand: tuple[Token, ...], ref: tuple[Token, ...]) -> Alignment:
    """The METEOR alignment of a candidate and a reference without markers:
    each token is matched min(occurrences in cand, occurrences in ref)
    times, and of those alignments the one with the fewest crossings is
    returned, ties broken by the lexicographically smallest pair list
    (leftmost candidate, then leftmost reference occurrence).

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
    the answer when it has no crossing. It is also the answer, whatever its
    crossings, when no step of it has a second move: that happens exactly
    when every shared cell occurs as often in the candidate as in the
    reference, and then each cell's occurrences pair up in order in the one
    alignment with the fewest crossings.

    Otherwise a depth-first branch-and-bound takes the moves in that order
    and keeps a complete alignment only below the best crossings so far, so
    the last one kept is the smallest pair list of fewest crossings. The
    best starts one above the crossings of the greedy alignment or of a
    guided one (at each step the move of least crossings plus bound),
    whichever has fewer. A state is cut when it was entered before at no
    higher cost, or when its crossings plus a lower bound reach the best.
    The bound adds, for each token that still owes matches, the used
    positions after each of its last free reference positions, and for each
    two such tokens whose places left lie in one order on the candidate side
    and in the other on the reference side, every pair of their mappings.

    The benchmark pairs enter at most about 300 states, and 100-step random
    walks on grids of 16 to 100 cells against self-avoiding references at
    most about 14,000. The search is still exponential in the worst case:
    sequences that repeat many cells in unrelated orders, such as two
    random orders of 40 cells against a third, need far more. It stops
    after ``_SEARCH_BUDGET`` states and returns the best alignment found,
    marked inexact. Memory is bounded by the budget and the stack.
    """
    cand_pos, ref_pos = _positions(cand), _positions(ref)
    shared = [t for t in cand_pos if t in ref_pos]  # by first candidate position
    token = {}  # per shared token: its reference positions, their bits, its matches
    for t in shared:
        bs = ref_pos[t]
        token[t] = (bs, sum(1 << b for b in bs), min(len(cand_pos[t]), len(bs)))
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

    def descend(guided: bool) -> tuple[int, tuple | None, bool]:
        """Crossings and pairs of one alignment: the first move at each step,
        or the move of least crossings plus bound; and whether any step had
        a second move."""
        crossings, chain, mask, branched = 0, None, 0, False
        for s in range(len(steps)):
            options = moves(s, mask)
            if len(options) > 1:
                branched = True
                if guided:
                    options.sort(key=lambda move: move[2] + bound(s + 1, move[1]))
            b, mask, crossed = options[0]
            crossings += crossed
            if b is not None:
                chain = (steps[s][0], b, chain)
        return crossings, chain, branched

    first, first_chain, branched = descend(False)
    if first and branched:  # else the greedy alignment is the answer
        guided, guided_chain, _ = descend(True)
        if guided < first:
            first, first_chain = guided, guided_chain
    best, best_chain, exact = first + 1, first_chain, True
    seen: dict[tuple[int, int], int] = {}  # (step, mask) -> least crossings it was entered with
    stack = [(0, 0, 0, None)] if first and branched else []  # step, mask, crossings, pairs as nested (a, b, rest)
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


def score_vector(cand: Sequence[Token], ref: Sequence[Token]) -> ScoreVector:
    """All five scores for one candidate/reference pair, markers stripped.
    ``meteor_exact`` tells whether the METEOR alignment search finished.
    """
    cand, ref = tuple(strip_virtual(cand)), tuple(strip_virtual(ref))
    alignment = _align(cand, ref)
    return _scores(len(cand), len(ref), _precisions(cand, ref), alignment.matched, alignment.chunks, alignment.exact)
