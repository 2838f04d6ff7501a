"""Independent brute-force references used to check the fast implementations.

These deliberately avoid sharing code with the package: n-gram counting is
done by direct list scans, and alignments are found by exhaustive recursion
over candidate positions, or, for inputs too large for that, by enumerating
every choice of occurrences per token.
"""
from __future__ import annotations

import itertools


def ngram_precision_oracle(cand, ref, n):
    """Clipped precision by direct n-gram list comparison."""
    if len(cand) < n:
        return 0.0
    cand_grams = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
    ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
    total = 0
    for gram in set(cand_grams):
        total += min(cand_grams.count(gram), ref_grams.count(gram))
    return total / len(cand_grams)


def bleu_oracle(cand, ref, n):
    if not cand or not ref:
        return 0.0
    prod = 1.0
    for i in range(1, n + 1):
        p = ngram_precision_oracle(cand, ref, i)
        if p == 0.0:
            return 0.0
        prod *= p
    return min(1.0, len(cand) / len(ref)) * prod ** (1.0 / n)


def enumerate_max_alignments(cand, ref):
    """All maximum-cardinality injective exact-match alignments.

    Plain recursion: each candidate position maps to one unused equal
    reference position or stays unmapped. Exponential; fine for len <= 6.
    """
    best: list[tuple[tuple[int, int], ...]] = []
    best_size = -1

    def recurse(i, used, pairs):
        nonlocal best, best_size
        if i == len(cand):
            if len(pairs) > best_size:
                best_size = len(pairs)
                best = [tuple(pairs)]
            elif len(pairs) == best_size:
                best.append(tuple(pairs))
            return
        # upper bound prune: even mapping every remaining position cannot win
        if len(pairs) + (len(cand) - i) < best_size:
            return
        for j in range(len(ref)):
            if j not in used and ref[j] == cand[i]:
                recurse(i + 1, used | {j}, pairs + [(i, j)])
        recurse(i + 1, used, pairs)

    recurse(0, frozenset(), [])
    return best


def crossings_of(pairs):
    count = 0
    for (i1, j1), (i2, j2) in itertools.combinations(sorted(pairs), 2):
        if j1 > j2:
            count += 1
    return count


def chunks_of(pairs):
    pairs = sorted(pairs)
    if not pairs:
        return 0
    chunks = 1
    for (i1, j1), (i2, j2) in zip(pairs, pairs[1:]):
        if not (i2 == i1 + 1 and abs(j2 - j1) == 1):
            chunks += 1
    return chunks


def best_alignment_oracle(cand, ref):
    """(pairs, crossings, chunks) of the canonical best alignment."""
    options = enumerate_max_alignments(cand, ref)
    best = min((crossings_of(p), tuple(sorted(p))) for p in options)
    crossings, pairs = best
    return pairs, crossings, chunks_of(pairs)


def meteor_oracle(cand, ref):
    if not cand or not ref:
        return 0.0
    pairs, _, chunks = best_alignment_oracle(cand, ref)
    matched = len(pairs)
    if matched == 0:
        return 0.0
    precision = matched / len(cand)
    recall = matched / len(ref)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (chunks / matched) ** 3
    return f_mean * (1.0 - penalty)


def best_alignment_by_subsets(cand, ref):
    """(pairs, crossings, chunks) of the canonical best alignment, by
    enumerating every choice of occurrences, with no cap.

    For each token on both sides, k = min(a, b) of its a candidate and b
    reference occurrences take part, chosen in every C(a, k) * C(b, k) way.
    The chosen occurrences pair up in increasing order: a same-token
    crossing can always be undone, which removes at least one crossing, so
    no fewest-crossing alignment has one. Tokens are taken one at a time;
    a branch stops once its crossings exceed the best complete total.
    """
    blocks = []
    for tok in sorted(set(cand) & set(ref), key=cand.index):
        cs = [i for i, t in enumerate(cand) if t == tok]
        rs = [j for j, t in enumerate(ref) if t == tok]
        k = min(len(cs), len(rs))
        blocks.append(
            [list(zip(csel, rsel)) for csel in itertools.combinations(cs, k) for rsel in itertools.combinations(rs, k)]
        )
    best = None

    def recurse(b, placed, crossed):
        nonlocal best
        if best is not None and crossed > best[0]:
            return
        if b == len(blocks):
            key = (crossed, tuple(sorted(placed)))
            if best is None or key < best:
                best = key
            return
        for block in blocks[b]:
            extra = sum(1 for i1, j1 in placed for i2, j2 in block if (i1 < i2) != (j1 < j2))
            recurse(b + 1, placed + block, crossed + extra)

    recurse(0, [], 0)
    crossings, pairs = best
    return pairs, crossings, chunks_of(pairs)
