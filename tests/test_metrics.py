import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellseq import metrics
from cellseq.metrics import ScoreVector, score_vector
from cellseq.tokens import END, START, strip_virtual

from oracles import (best_alignment_by_subsets, best_alignment_oracle, bleu_oracle, crossings_of, meteor_oracle,
                     ngram_precision_oracle)

A, B, C, D = "a", "b", "c", "d"


def precisions(cand, ref):
    """P_1..P_4 of ``cand`` against ``ref``, markers stripped."""
    return metrics._precisions(tuple(strip_virtual(cand)), tuple(strip_virtual(ref)))


def align(cand, ref):
    """The METEOR alignment of ``cand`` and ``ref``, markers stripped."""
    return metrics._align(tuple(strip_virtual(cand)), tuple(strip_virtual(ref)))


# ---------------------------------------------------------------------------
# modified precision


def test_precision_identity():
    assert precisions([A, B, C], [A, B, C]) == [1.0, 1.0, 1.0, 0.0]


def test_precision_clipping_by_hand():
    assert precisions([A, A, A], [A, B])[0] == pytest.approx(1 / 3)


def test_precision_bigram_by_hand():
    assert precisions([A, B, C], [A, B, D])[1] == pytest.approx(1 / 2)


def test_precision_short_candidate_is_zero():
    assert precisions([A], [A, B])[1] == 0.0
    assert precisions([], [A])[0] == 0.0


# ---------------------------------------------------------------------------
# bleu


def test_bleu_identity():
    assert score_vector([A, B, C, D], [A, B, C, D]).bleu1 == 1.0


def test_bleu_brevity_penalty_is_length_ratio():
    assert score_vector([A, B], [A, B, C, D]).bleu1 == pytest.approx(0.5)


def test_bleu_geometric_mean_by_hand():
    assert score_vector([A, B, C], [A, B, D]).bleu2 == pytest.approx((2 / 3 * 1 / 2) ** 0.5)


def test_bleu_zero_precision_zeroes_score():
    # no common unigram / bigram: the zero precision zeroes the whole score
    assert score_vector([A, B], [C, D]).bleu1 == 0.0
    assert score_vector([A, C], [A, B]).bleu2 == 0.0


def test_bleu_strips_virtual_tokens():
    assert score_vector([START, A, B, END], [START, A, B, END]).bleu1 == 1.0
    # length penalty counts cells only
    assert score_vector([START, A, B, END], [A, B, C, D]).bleu1 == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# alignment


def test_align_identity():
    a = align([A, B, C], [A, B, C])
    assert a.pairs == ((0, 0), (1, 1), (2, 2))
    assert a.crossings == 0
    assert a.chunks == 1


def test_align_unavoidable_crossing():
    a = align([B, A], [A, B])
    assert a.matched == 2
    assert a.crossings == 1


def test_align_disjoint_tokens_empty():
    a = align([A, B], [C, D])
    assert a.pairs == ()
    assert a.matched == 0


def test_align_prefers_fewest_crossings():
    # candidate [a, b, a] vs reference [a, b]: map first a, not the second
    a = align([A, B, A], [A, B])
    assert a.pairs == ((0, 0), (1, 1))
    assert a.crossings == 0


# ---------------------------------------------------------------------------
# meteor


def test_meteor_identity_worked_example():
    assert score_vector([A, B, C, D], [A, B, C, D]).meteor == pytest.approx(0.9921875)


def test_meteor_no_common_tokens():
    assert score_vector([A, B], [C, D]).meteor == 0.0


def test_meteor_transposition_worked_example():
    a = align([A, C, B], [A, B, C])
    assert a.matched == 3
    assert a.chunks == 2
    expected = 1.0 * (1.0 - 0.5 * (2 / 3) ** 3)
    assert score_vector([A, C, B], [A, B, C]).meteor == pytest.approx(expected)
    assert score_vector([A, C, B], [A, B, C]).meteor == pytest.approx(0.8519, abs=1e-4)


def test_meteor_empty_inputs():
    assert score_vector([], [A]).meteor == 0.0
    assert score_vector([A], []).meteor == 0.0


# ---------------------------------------------------------------------------
# oracle agreement (the dual-route check)

token_seq = st.lists(st.sampled_from([1, 2, 3]), min_size=0, max_size=6)


@settings(deadline=None, max_examples=300)
@given(cand=token_seq, ref=token_seq)
def test_bleu_matches_bruteforce_oracle(cand, ref):
    bleus = score_vector(cand, ref).as_tuple()[:4]
    for n in (1, 2, 3, 4):
        assert bleus[n - 1] == pytest.approx(bleu_oracle(cand, ref, n), abs=1e-12)


@settings(deadline=None, max_examples=300)
@given(cand=token_seq, ref=token_seq)
def test_meteor_matches_enumeration_oracle(cand, ref):
    assert score_vector(cand, ref).meteor == pytest.approx(meteor_oracle(cand, ref), abs=1e-12)


@settings(deadline=None, max_examples=200)
@given(cand=token_seq, ref=token_seq)
def test_alignment_matches_oracle(cand, ref):
    pairs, crossings, chunks = best_alignment_oracle(cand, ref)
    a = align(cand, ref)
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
def test_score_vector_strips_markers(cand, ref):
    cells, ref_cells = strip_virtual(cand), strip_virtual(ref)
    got = score_vector(cand, ref)
    assert [v.hex() for v in got.as_tuple()] == [v.hex() for v in score_vector(cells, ref_cells).as_tuple()]
    expect = (*(bleu_oracle(cells, ref_cells, n) for n in (1, 2, 3, 4)), meteor_oracle(cells, ref_cells))
    assert got.as_tuple() == pytest.approx(expect, abs=1e-12)


@settings(deadline=None, max_examples=200)
@given(ref=st.lists(st.sampled_from([1, 2, 3, 4, 5, START, END]), max_size=9),
       cands=st.lists(st.lists(st.sampled_from([1, 2, 3, 4, 5, START, END]), max_size=9), max_size=8))
@example(ref=[], cands=[[], [START, END], [1, 2]])
@example(ref=[START, END], cands=[[1], []])
@example(ref=[START, 1, 2, 1, 3, END], cands=[[1, 2, 1, 2], [START, 3, 1, END], [], [2, 2, 2], [1, 2, 1, 3]])
@example(ref=[1, 2, 3, 4], cands=[[4, 3, 2, 1], [1, 2, 3, 4], [2, 1, 1, 2], [5]])
def test_precisions_match_oracle_and_meteor_exact_follows_alignment(ref, cands):
    ref_cells = tuple(strip_virtual(ref))
    for cand in cands:
        stripped = tuple(strip_virtual(cand))
        # the same integer ratios, so equal bit for bit
        assert metrics._precisions(stripped, ref_cells) == [
            ngram_precision_oracle(stripped, ref_cells, n) for n in (1, 2, 3, 4)
        ]
        assert score_vector(cand, ref).meteor_exact == metrics._align(stripped, ref_cells).exact


@settings(deadline=None, max_examples=50)
@given(seq=st.lists(st.sampled_from([1, 2, 3, 4, 5, 6]), min_size=4, max_size=8, unique=True))
def test_identical_sequences_score_high(seq):
    assert score_vector(seq, seq).bleu1 == 1.0
    assert score_vector(seq, seq).meteor >= 0.99


def test_score_vector_bounds():
    with pytest.raises(ValueError):
        ScoreVector(1.5, 0, 0, 0, 0)


def test_repeated_token_alignment_exact():
    # multiplicities force a real choice of occurrences
    cand = [1, 2, 1, 2, 1]
    ref = [2, 1, 1, 2, 2]
    pairs, crossings, chunks = best_alignment_oracle(cand, ref)
    a = align(cand, ref)
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
    assert _as_oracle(align(cand, ref)) == best_alignment_by_subsets(cand, ref)


@settings(deadline=None, max_examples=300)
@given(cand=st.lists(st.sampled_from([1, 2, 3]), max_size=8), ref=st.lists(st.sampled_from([1, 2, 3]), max_size=14))
def test_alignment_matches_subset_oracle_longer_reference(cand, ref):
    # the reference often repeats a token more than the candidate does, which
    # leaves the search a choice of reference positions
    assert _as_oracle(align(cand, ref)) == best_alignment_by_subsets(cand, ref)


@st.composite
def crossing_unique_pairs(draw):
    """A candidate and a reference whose shared cells occur once on each side
    in two different orders, so that their alignment crosses; the cells
    that only one side has may repeat."""
    shared = draw(st.lists(st.integers(1, 12), min_size=2, max_size=9, unique=True))
    order = draw(st.permutations(shared))
    if order == shared:
        order = order[::-1]

    def pad(cells, others):
        out = list(cells)
        for t in draw(st.lists(others, max_size=6)):
            out.insert(draw(st.integers(0, len(out))), t)
        return out

    return pad(order, st.integers(13, 16)), pad(shared, st.integers(17, 20))


@settings(deadline=None, max_examples=300)
@given(pair=crossing_unique_pairs())
@example(pair=([3, 1, 2], [1, 2, 3]))
@example(pair=([9, 4, 9, 3, 2, 9, 1], [1, 2, 7, 3, 4, 7]))
@example(pair=(list(range(12, 0, -1)), list(range(1, 13))))
def test_unique_shared_cells_alignment_matches_subset_oracle(pair):
    # the one alignment with the most mappings; pairs without a crossing are
    # left out, because there the greedy alignment alone is known to be the answer
    cand, ref = pair
    expect = best_alignment_by_subsets(cand, ref)
    assert expect[1] > 0
    assert _as_oracle(align(cand, ref)) == expect


@st.composite
def equal_count_pairs(draw):
    """A candidate and a reference in which every cell they share occurs as
    often on one side as on the other: two orders of up to 100 distinct
    cells, so that crossings are common, or two orders of a few cells that
    repeat; each side may also have cells that the other lacks."""
    if draw(st.booleans()):
        shared = draw(st.lists(st.integers(1, 100), max_size=100, unique=True))
    else:
        shared = draw(st.lists(st.integers(1, 3), max_size=6))
    cand, ref = list(draw(st.permutations(shared))), list(draw(st.permutations(shared)))
    for side, others in ((cand, st.integers(101, 103)), (ref, st.integers(104, 106))):
        for t in draw(st.lists(others, max_size=2)):
            side.insert(draw(st.integers(0, len(side))), t)
    return cand, ref


@settings(deadline=None, max_examples=200)
@given(pair=equal_count_pairs())
@example(pair=([2, 1, 3, 1], [1, 3, 1, 2]))
@example(pair=([3, 1, 2], [1, 2, 3]))
@example(pair=(list(range(100, 0, -1)), list(range(1, 101))))
def test_alignment_without_a_choice_needs_no_search(pair):
    # no step has a second move, so the greedy alignment is returned before
    # the search, which a budget of one state would cut
    cand, ref = pair
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_SEARCH_BUDGET", 1)
        a = align(cand, ref)
    assert a.exact
    # the k-th occurrence of each shared cell maps to its k-th occurrence
    in_order = [ij for t in set(cand) & set(ref)
                for ij in zip([i for i, c in enumerate(cand) if c == t], [j for j, r in enumerate(ref) if r == t])]
    assert a.pairs == tuple(sorted(in_order))
    assert a.crossings == crossings_of(a.pairs)
    if len(cand) <= 8 and len(ref) <= 8:
        assert (a.pairs, a.crossings, a.chunks) == best_alignment_by_subsets(cand, ref)


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
    a = align(cand, ref)
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
    a = align(cand, ZIGZAG)
    assert (a.crossings, a.matched) == (0, 12)
    assert a.pairs == _leftmost_embedding(ZIGZAG, cand)


def test_alignment_alternating_reference():
    ref = [1, 2] * 50
    a = align(ZIGZAG, ref)
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
    a = align(cand, ref)
    assert (a.crossings, a.matched, a.exact) == (0, len(ref), True)
    assert a.pairs == pairs


SHUFFLED = [8, 9, 2, 6, 4, 5, 3, 1, 10, 7]


def test_alignment_out_and_back_against_shuffled_reference():
    cand = list(range(1, 11)) + list(range(9, 0, -1))
    a = align(cand, SHUFFLED)
    assert _as_oracle(a) == best_alignment_by_subsets(cand, SHUFFLED)
    assert a.crossings == 13


def test_alignment_stops_at_budget(monkeypatch):
    cand = list(range(1, 11)) + list(range(9, 0, -1))
    exact = align(cand, SHUFFLED)
    monkeypatch.setattr(metrics, "_SEARCH_BUDGET", 10)  # the exact search enters more states
    cut = align(cand, SHUFFLED)
    assert exact.exact and not cut.exact
    assert cut.matched == exact.matched
    assert all(cand[i] == SHUFFLED[j] for i, j in cut.pairs)
    assert len({j for _, j in cut.pairs}) == cut.matched
    assert cut.crossings == crossings_of(cut.pairs) >= exact.crossings
    sv = score_vector(cand, SHUFFLED)
    assert not sv.meteor_exact
    # METEOR is scored on the alignment the cut search returned
    precision, recall = cut.matched / len(cand), cut.matched / len(SHUFFLED)
    f_mean = 10.0 * precision * recall / (recall + 9.0 * precision)
    assert sv.meteor == pytest.approx(f_mean * (1.0 - 0.5 * (cut.chunks / cut.matched) ** 3), abs=1e-12)
    assert score_vector(cand, cand).meteor_exact
