import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellseq import metrics
from cellseq.metrics import (
    ScoreVector,
    bleu_n,
    meteor,
    meteor_align,
    modified_precision,
    score_vector,
)
from cellseq.tokens import END, START

from oracles import best_alignment_by_subsets, best_alignment_oracle, bleu_oracle, crossings_of, meteor_oracle

A, B, C, D = "a", "b", "c", "d"


# ---------------------------------------------------------------------------
# modified precision


def test_precision_identity():
    assert modified_precision([A, B, C], [A, B, C], 1) == 1.0


def test_precision_clipping_by_hand():
    assert modified_precision([A, A, A], [A, B], 1) == pytest.approx(1 / 3)


def test_precision_bigram_by_hand():
    assert modified_precision([A, B, C], [A, B, D], 2) == pytest.approx(1 / 2)


def test_precision_short_candidate_is_zero():
    assert modified_precision([A], [A, B], 2) == 0.0
    assert modified_precision([], [A], 1) == 0.0


def test_precision_rejects_bad_n():
    with pytest.raises(ValueError):
        modified_precision([A], [A], 0)


# ---------------------------------------------------------------------------
# bleu


def test_bleu_identity():
    assert bleu_n([A, B, C, D], [A, B, C, D], 1) == 1.0


def test_bleu_brevity_penalty_is_length_ratio():
    assert bleu_n([A, B], [A, B, C, D], 1) == pytest.approx(0.5)


def test_bleu_geometric_mean_by_hand():
    assert bleu_n([A, B, C], [A, B, D], 2) == pytest.approx((2 / 3 * 1 / 2) ** 0.5)


def test_bleu_zero_precision_zeroes_score():
    # no common unigram / bigram: the zero precision zeroes the whole score
    assert bleu_n([A, B], [C, D], 1) == 0.0
    assert bleu_n([A, C], [A, B], 2) == 0.0


def test_bleu_strips_virtual_tokens():
    assert bleu_n([START, A, B, END], [START, A, B, END], 1) == 1.0
    # length penalty counts cells only
    assert bleu_n([START, A, B, END], [A, B, C, D], 1) == pytest.approx(0.5)


def test_bleu_rejects_bad_n():
    with pytest.raises(ValueError):
        bleu_n([A], [A], 5)
    with pytest.raises(ValueError):
        bleu_n([A], [A], 0)


# ---------------------------------------------------------------------------
# alignment


def test_align_identity():
    a = meteor_align([A, B, C], [A, B, C])
    assert a.pairs == ((0, 0), (1, 1), (2, 2))
    assert a.crossings == 0
    assert a.chunks == 1


def test_align_unavoidable_crossing():
    a = meteor_align([B, A], [A, B])
    assert a.matched == 2
    assert a.crossings == 1


def test_align_disjoint_tokens_empty():
    a = meteor_align([A, B], [C, D])
    assert a.pairs == ()
    assert a.matched == 0


def test_align_prefers_fewest_crossings():
    # candidate [a, b, a] vs reference [a, b]: map first a, not the second
    a = meteor_align([A, B, A], [A, B])
    assert a.pairs == ((0, 0), (1, 1))
    assert a.crossings == 0


# ---------------------------------------------------------------------------
# meteor


def test_meteor_identity_worked_example():
    assert meteor([A, B, C, D], [A, B, C, D]) == pytest.approx(0.9921875)


def test_meteor_no_common_tokens():
    assert meteor([A, B], [C, D]) == 0.0


def test_meteor_transposition_worked_example():
    a = meteor_align([A, C, B], [A, B, C])
    assert a.matched == 3
    assert a.chunks == 2
    expected = 1.0 * (1.0 - 0.5 * (2 / 3) ** 3)
    assert meteor([A, C, B], [A, B, C]) == pytest.approx(expected)
    assert meteor([A, C, B], [A, B, C]) == pytest.approx(0.8519, abs=1e-4)


def test_meteor_empty_inputs():
    assert meteor([], [A]) == 0.0
    assert meteor([A], []) == 0.0


# ---------------------------------------------------------------------------
# oracle agreement (the dual-route check)

token_seq = st.lists(st.sampled_from([1, 2, 3]), min_size=0, max_size=6)


@settings(deadline=None, max_examples=300)
@given(cand=token_seq, ref=token_seq)
def test_bleu_matches_bruteforce_oracle(cand, ref):
    for n in (1, 2, 3, 4):
        assert bleu_n(cand, ref, n) == pytest.approx(bleu_oracle(cand, ref, n), abs=1e-12)


@settings(deadline=None, max_examples=300)
@given(cand=token_seq, ref=token_seq)
def test_meteor_matches_enumeration_oracle(cand, ref):
    assert meteor(cand, ref) == pytest.approx(meteor_oracle(cand, ref), abs=1e-12)


@settings(deadline=None, max_examples=200)
@given(cand=token_seq, ref=token_seq)
def test_alignment_matches_oracle(cand, ref):
    pairs, crossings, chunks = best_alignment_oracle(cand, ref)
    a = meteor_align(cand, ref)
    assert a.matched == len(pairs)
    assert a.crossings == crossings
    assert a.pairs == pairs
    assert a.chunks == chunks


@settings(deadline=None, max_examples=200)
@given(cand=token_seq, ref=token_seq)
def test_scores_in_unit_interval(cand, ref):
    v = score_vector(cand, ref)
    for s in v.as_tuple():
        assert 0.0 <= s <= 1.0


virtual_seq = st.lists(st.sampled_from([1, 2, 3, START, END]), min_size=0, max_size=8)


@settings(deadline=None, max_examples=300)
@given(cand=virtual_seq, ref=virtual_seq)
@example(cand=[], ref=[])
@example(cand=[START, END], ref=[START, 1, 2, END])
@example(cand=[START, 1, 2, END], ref=[START, END])
@example(cand=[START, 1, 2, 1, 2, END], ref=[START, 2, 1, 2, END])
def test_score_vector_is_bitwise_the_single_scores(cand, ref):
    expect = (*(bleu_n(cand, ref, n) for n in (1, 2, 3, 4)), meteor(cand, ref))
    got = score_vector(cand, ref).as_tuple()
    assert [v.hex() for v in got] == [float(v).hex() for v in expect]


@settings(deadline=None, max_examples=50)
@given(seq=st.lists(st.sampled_from([1, 2, 3, 4, 5, 6]), min_size=4, max_size=8, unique=True))
def test_identical_sequences_score_high(seq):
    assert bleu_n(seq, seq, 1) == 1.0
    assert meteor(seq, seq) >= 0.99


def test_score_vector_bounds():
    with pytest.raises(ValueError):
        ScoreVector(1.5, 0, 0, 0, 0)


def test_repeated_token_alignment_exact():
    # multiplicities force a real choice of occurrences
    cand = [1, 2, 1, 2, 1]
    ref = [2, 1, 1, 2, 2]
    pairs, crossings, chunks = best_alignment_oracle(cand, ref)
    a = meteor_align(cand, ref)
    assert (a.matched, a.crossings) == (len(pairs), crossings)
    assert a.pairs == pairs


# ---------------------------------------------------------------------------
# exact alignment on repeat-heavy inputs, against the uncapped subset oracle


def _as_oracle(a):
    assert a.exact  # the search finished within its budget
    return a.pairs, a.crossings, a.chunks


@settings(deadline=None, max_examples=300)
@given(cand=st.lists(st.sampled_from([1, 2, 3]), max_size=14), ref=st.lists(st.sampled_from([1, 2, 3]), max_size=8))
def test_alignment_matches_subset_oracle(cand, ref):
    assert _as_oracle(meteor_align(cand, ref)) == best_alignment_by_subsets(cand, ref)


@settings(deadline=None, max_examples=300)
@given(cand=st.lists(st.sampled_from([1, 2, 3]), max_size=8), ref=st.lists(st.sampled_from([1, 2, 3]), max_size=14))
def test_alignment_matches_subset_oracle_longer_reference(cand, ref):
    # the reference often repeats a token more than the candidate does, which
    # leaves the search a choice of reference positions
    assert _as_oracle(meteor_align(cand, ref)) == best_alignment_by_subsets(cand, ref)


# Random-walk pairs of the score_revisit benchmark (seeds 2 and 1), with
# 22,275 and 61,776 occurrence combinations. A 512-wide beam over the
# combinations found 1 crossing and 5 chunks, and 3 crossings and 7 chunks.
@pytest.mark.parametrize(
    "cand, ref, crossings, chunks",
    [
        (
            [7, 6, 7, 8, 7, 6, 5, 4, 3, 4, 5, 6, 7, 8, 7, 8, 7, 6, 7, 6, 7, 6, 5, 6, 5, 4, 5, 4, 5, 6, 7, 8, 7, 8, 7,
             6, 7],
            [8, 7, 8, 7, 6, 7, 8, 7, 8],
            0,
            4,
        ),
        (
            [8, 7, 6, 5, 6, 5, 6, 7, 8, 7, 8, 7, 6, 7, 8, 7, 8, 7, 8, 7, 6, 5, 6, 5, 6, 5, 4, 5, 4, 5, 6, 5, 4, 5, 6,
             5, 4, 5, 6, 7, 6, 7, 6, 7, 8, 7, 8, 7, 8],
            [1, 2, 3, 4, 3, 4, 3, 4, 5, 6, 7, 8],
            0,
            5,
        ),
    ],
)
def test_alignment_exact_on_revisit_pairs(cand, ref, crossings, chunks):
    a = meteor_align(cand, ref)
    assert _as_oracle(a) == best_alignment_by_subsets(cand, ref)
    assert (a.crossings, a.chunks) == (crossings, chunks)


ZIGZAG = [2, 1, 2, 1, 1, 2, 2, 1, 2, 1, 1, 2]


def _leftmost_embedding(seq, into):
    """(position in ``into``, position in ``seq``) of the greedy leftmost
    embedding of ``seq`` as a subsequence of ``into``."""
    pairs, start = [], 0
    for k, t in enumerate(seq):
        start = into.index(t, start) + 1
        pairs.append((start - 1, k))
    return tuple(pairs)


@pytest.mark.parametrize("n", [15, 50])
def test_alignment_alternating_candidate(n):
    # every 12-cell sequence over {1, 2} is a subsequence of [1, 2] * 12, so
    # no crossing is needed; the leftmost embedding is the smallest pair list
    cand = [1, 2] * n
    a = meteor_align(cand, ZIGZAG)
    assert (a.crossings, a.matched) == (0, 12)
    assert a.pairs == _leftmost_embedding(ZIGZAG, cand)


def test_alignment_alternating_reference():
    ref = [1, 2] * 50
    a = meteor_align(ZIGZAG, ref)
    assert (a.crossings, a.matched) == (0, 12)
    assert a.pairs == tuple((i, j) for j, i in _leftmost_embedding(ZIGZAG, ref))


# A candidate that passes over the reference's cells twice: every cell has
# two candidate occurrences to choose from.
OUT = list(range(1, 25))
BACK = list(range(23, 0, -1))


@pytest.mark.parametrize(
    "cand, ref, pairs",
    [
        (OUT + BACK, OUT, tuple((j, j) for j in range(24))),
        (OUT[:22] * 2, OUT[:22], tuple((j, j) for j in range(22))),
        # against the way back only the second pass maps without crossings
        (OUT + BACK, OUT[::-1], tuple((23 + j, j) for j in range(24))),
    ],
)
def test_alignment_candidate_passing_twice(cand, ref, pairs):
    a = meteor_align(cand, ref)
    assert (a.crossings, a.matched, a.exact) == (0, len(ref), True)
    assert a.pairs == pairs


SHUFFLED = [8, 9, 2, 6, 4, 5, 3, 1, 10, 7]


def test_alignment_out_and_back_against_shuffled_reference():
    cand = list(range(1, 11)) + list(range(9, 0, -1))
    a = meteor_align(cand, SHUFFLED)
    assert _as_oracle(a) == best_alignment_by_subsets(cand, SHUFFLED)
    assert a.crossings == 13


def test_alignment_stops_at_budget(monkeypatch):
    cand = list(range(1, 11)) + list(range(9, 0, -1))
    exact = meteor_align(cand, SHUFFLED)
    monkeypatch.setattr(metrics, "_SEARCH_BUDGET", 10)  # the exact search enters more states
    cut = meteor_align(cand, SHUFFLED)
    assert exact.exact and not cut.exact
    assert cut.matched == exact.matched
    assert all(cand[i] == SHUFFLED[j] for i, j in cut.pairs)
    assert len({j for _, j in cut.pairs}) == cut.matched
    assert cut.crossings == crossings_of(cut.pairs) >= exact.crossings
    sv = score_vector(cand, SHUFFLED)
    assert not sv.meteor_exact
    assert sv.meteor == meteor(cand, SHUFFLED)
    assert score_vector(cand, cand).meteor_exact
