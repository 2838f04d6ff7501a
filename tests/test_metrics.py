import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellseq.metrics import (
    ScoreVector,
    bleu_n,
    meteor,
    meteor_align,
    modified_precision,
    score_vector,
)
from cellseq.tokens import END, START

from oracles import best_alignment_oracle, bleu_oracle, meteor_oracle

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
