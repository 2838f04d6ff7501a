"""Independent brute-force references used to check the fast implementations.

These deliberately avoid sharing code with the package and import nothing
from it: n-gram counting is done by direct list scans, and alignments are
found by exhaustive recursion over candidate positions, or, for inputs too
large for that, by enumerating every choice of occurrences per token. The
model references run one step, one vector and, for attention, one cell at a
time; they read only a model's ``params``, ``kind``, ``dims`` and ``vocab``.
The sampler's uniforms come from SplitMix64 written in plain Python ints.
Gradients are checked by central differences. The discretization
references compare every point with every centroid, and count vehicles
one trip and one minute mark at a time.
"""
from __future__ import annotations

import itertools
import math

import numpy as np


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


# ---------------------------------------------------------------------------
# discretization and accumulation: every point against every centroid


def greedy_clusters_oracle(points, radius):
    """Centroids [N, 2] of the greedy single pass, on Python floats: each
    point joins the first of the nearest centroids if its squared distance
    ``dx*dx + dy*dy`` is at most ``radius * radius``, else opens a cluster;
    centroids are running sums over counts."""
    sums, counts, cents = [], [], []
    r2 = radius * radius
    for x, y in np.asarray(points, dtype=float).reshape(-1, 2).tolist():
        d2 = [(x - cx) * (x - cx) + (y - cy) * (y - cy) for cx, cy in cents]
        if d2 and min(d2) <= r2:
            j = d2.index(min(d2))
            sums[j] = (sums[j][0] + x, sums[j][1] + y)
            counts[j] += 1
            cents[j] = (sums[j][0] / counts[j], sums[j][1] / counts[j])
        else:
            sums.append((x, y))
            counts.append(1)
            cents.append((x, y))
    return np.array(cents)


def nearest_cell_oracle(points, centroids):
    """1-based index of each point's nearest centroid, ties to the lowest,
    through the full [P, N, 2] difference array summed over its last axis.
    Distances that overflow are inf, as in the package, without a warning."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    with np.errstate(over="ignore"):
        d2 = np.sum((pts[:, None, :] - np.asarray(centroids, dtype=float)[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1) + 1


def accumulation_oracle(trips, centroids, pad_minutes):
    """(minute0, counts [minutes, N]) for trips given as [l, 3] (x, y, t)
    arrays: at each minute mark from ceil(t0 / 60) to floor(t_end / 60) a
    trip adds one to the cell of its last point at or before the mark. The
    series starts ``pad_minutes`` before the earliest trip's minute."""
    trips = [np.asarray(t, dtype=float) for t in trips]
    minute0 = min(math.floor(t[0, 2] / 60.0) for t in trips) - pad_minutes
    counts = np.zeros((max(math.floor(t[-1, 2] / 60.0) for t in trips) - minute0 + 1, len(centroids)),
                      dtype=np.int64)
    for t in trips:
        cells = nearest_cell_oracle(t[:, :2], centroids)
        times = t[:, 2].tolist()
        for minute in range(math.ceil(times[0] / 60.0), math.floor(times[-1] / 60.0) + 1):
            last = max(i for i, time in enumerate(times) if time <= minute * 60.0)
            counts[minute - minute0, cells[last] - 1] += 1
    return minute0, counts


# ---------------------------------------------------------------------------
# the generators: one step, one vector and, for attention, one cell at a time


def softmax_oracle(scores):
    top = max(scores)
    weights = [math.exp(s - top) for s in scores]
    return np.array([w / sum(weights) for w in weights])


def lstm_oracle(x, h, c, W, U, b):
    """One LSTM step of one input vector: gates i, f, o and candidate g, in
    that column order of W, U and b; c' = f*c + i*g, h' = o*tanh(c')."""
    d, z = len(h), x @ W + h @ U + b
    i, f, o = (1.0 / (1.0 + np.exp(-z[k * d : (k + 1) * d])) for k in range(3))
    c2 = f * c + i * np.tanh(z[3 * d :])
    return o * np.tanh(c2), c2


def attention_oracle(s, features, p):
    """Weights alpha = softmax(e), e_j = v . tanh(s @ W_a + f_j @ U_a) for each
    cell's feature row f_j, and the context sum_j alpha_j f_j."""
    alpha = softmax_oracle([float(p["attn_v"] @ np.tanh(s @ p["attn_W"] + f @ p["attn_U"])) for f in features])
    return alpha, sum(a * f for a, f in zip(alpha, features))


def _reader(model, traffic):
    """A function that reads one token id into the model's state and returns
    the next-token distribution and the attention row (None for rnn)."""
    p, attend = model.params, model.kind == "arnn"
    h = c = np.zeros(model.dims.d_h)
    if attend:
        features = np.tanh(np.asarray(traffic, dtype=float) @ p["traffic_W"])
        mean = features.sum(axis=0) / len(features)
        h, c = np.tanh(mean @ p["init_Wh"]), np.tanh(mean @ p["init_Wc"])

    def read(token_id):
        nonlocal h, c
        x, alpha = p["embed"][token_id], None
        if attend:
            alpha, context = attention_oracle(h, features, p)
            x = np.concatenate([x, context])
        h, c = lstm_oracle(x, h, c, p["lstm_W"], p["lstm_U"], p["lstm_b"])
        return softmax_oracle(list(h @ p["dec_W"] + p["dec_b"])), alpha

    return read


def forward_oracle(model, tokens, traffic=None):
    """The next-token distributions [len, V] of a teacher-forced token
    sequence and its attention rows [len, N] (None for rnn)."""
    probs, alphas = zip(*map(_reader(model, traffic), model.vocab.encode(list(tokens))))
    return np.array(probs), None if alphas[0] is None else np.array(alphas)


def pick_oracle(probs, u):
    """The first index whose cumulative mass exceeds u times the total
    (``searchsorted(side="right")``), clamped to the last."""
    cum = np.cumsum(probs)
    return min(int(np.searchsorted(cum, u * cum[-1], side="right")), len(probs) - 1)


GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MASK64 = 2**64 - 1


def splitmix64_oracle(state):
    """SplitMix64's output for the counter ``state`` (Steele, Lea & Flood,
    OOPSLA 2014): the generator seeded with s returns this of s + i * gamma
    as its i-th output, i = 1, 2, ..."""
    z = state & MASK64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK64
    return z ^ z >> 31


def uniform_oracle(key, position):
    """The uniform in [0, 1) of the token at ``position`` in the stream of
    ``key``: the top 53 bits of SplitMix64 of key + position * gamma."""
    return (splitmix64_oracle(key + position * GOLDEN_GAMMA) >> 11) / 2**53


def sample_oracle(model, prefix, seed, max_len, traffic=None):
    """The ids sampled after the prefix until #end or ``max_len`` tokens,
    prefix included, the token at sequence position j drawn with
    ``uniform_oracle(seed, j)``."""
    read = _reader(model, traffic)
    probs = [read(token_id) for token_id in model.vocab.encode(list(prefix))][-1][0]
    sampled = [pick_oracle(probs, uniform_oracle(seed, len(prefix)))]
    while sampled[-1] != model.vocab.end_id and len(prefix) + len(sampled) < max_len:
        sampled.append(pick_oracle(read(sampled[-1])[0], uniform_oracle(seed, len(prefix) + len(sampled))))
    return tuple(sampled)


def grad_check(fn, params, eps=1e-5):
    """Max relative error between analytic gradients and central differences.

    ``fn`` maps parameters to (scalar loss, gradient dict); each parameter is
    perturbed in place. The relative error per coordinate is
    |a - n| / max(1e-8, |a| + |n|).
    """
    _, analytic = fn(params)
    worst = 0.0
    for name, p in params.items():
        flat = p.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            plus, _ = fn(params)
            flat[idx] = orig - eps
            minus, _ = fn(params)
            flat[idx] = orig
            numeric = (plus - minus) / (2.0 * eps)
            ai = float(analytic[name].reshape(-1)[idx])
            worst = max(worst, abs(ai - numeric) / max(1e-8, abs(ai) + abs(numeric)))
    return worst
