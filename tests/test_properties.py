"""Property tests of the metric and selection invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sectsum import rouge_l, rouge_n, seg_f1, select_top_k, windowdiff

# derandomize: the same examples on every run, and no example database on disk
FAST = settings(max_examples=60, deadline=None, derandomize=True)

tokens = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=12)


@FAST
@given(tokens, tokens, st.integers(1, 3))
def test_rouge_scores_are_bounded(system, reference, n):
    for score in (rouge_n(system, reference, n), rouge_l(system, reference)):
        for value in (score.precision, score.recall, score.f1):
            assert 0.0 <= value <= 1.0


@FAST
@given(tokens.filter(lambda t: len(t) >= 2))
def test_rouge_self_score_is_one(text):
    assert rouge_n(text, text, 1).f1 == 1.0
    assert rouge_n(text, text, 2).f1 == 1.0
    assert rouge_l(text, text).f1 == 1.0


@FAST
@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=12),
       st.integers(0, 14))
def test_select_top_k_returns_k_ascending_lowest_index_ties(scores, k):
    picked = select_top_k(np.array(scores), k)
    assert len(picked) == min(k, len(scores))
    assert list(picked) == sorted(set(picked))
    # a reference ranking: descending score, then ascending index
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    assert set(picked) == set(ranked[:k])


boundary_sets = st.builds(
    lambda n, bits: (n, {i for i in range(1, n) if bits >> i & 1}),
    st.integers(2, 30), st.integers(0, 2 ** 30))


@FAST
@given(boundary_sets)
def test_seg_f1_is_one_on_identical_sets(case):
    n, bounds = case
    assert seg_f1(bounds, set(bounds), n=n).f1 == 1.0


@FAST
@given(boundary_sets, st.integers(0, 2 ** 30))
def test_windowdiff_bounds_and_identity(case, other_bits):
    n, ref = case
    hyp = {i for i in range(1, n) if other_bits >> i & 1}
    assert 0.0 <= windowdiff(hyp, ref, n) <= 1.0
    assert windowdiff(ref, set(ref), n) == 0.0
