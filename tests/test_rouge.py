import numpy as np
import pytest

from sectsum import rouge_l, rouge_n
from sectsum.rouge import Reference

from conftest import dp_lcs_length


def test_rouge1_fixture():
    """Clipped unigram overlap, worked by hand.

    system "the cat" vs reference "the cat sat on the mat":
    overlap 2, P = 2/2 = 1, R = 2/6, F = 2*(1*1/3)/(1+1/3) = 0.5.
    """
    score = rouge_n("the cat".split(), "the cat sat on the mat".split(), 1)
    assert score.precision == 1.0
    assert score.recall == pytest.approx(2 / 6)
    assert score.f1 == pytest.approx(0.5)


def test_rouge2_fixture():
    """system bigrams {the cat}; reference has 5 bigrams, overlap 1.

    P = 1, R = 1/5, F = 2*(1/5)/(6/5) = 1/3.
    """
    score = rouge_n("the cat".split(), "the cat sat on the mat".split(), 2)
    assert score.precision == 1.0
    assert score.recall == pytest.approx(1 / 5)
    assert score.f1 == pytest.approx(1 / 3)


def test_rouge_l_fixture():
    """LCS("a c d", "a b c d") = 3: P = 3/3, R = 3/4, F = 6/7."""
    score = rouge_l("a c d".split(), "a b c d".split())
    assert score.precision == 1.0
    assert score.recall == pytest.approx(3 / 4)
    assert score.f1 == pytest.approx(6 / 7)


def test_self_rouge_is_one():
    rng = np.random.default_rng(0)
    vocab = [f"t{i}" for i in range(40)]
    for _ in range(20):
        tokens = list(rng.choice(vocab, size=rng.integers(1, 30)))
        for n in (1, 2):
            if len(tokens) >= n:
                assert rouge_n(tokens, tokens, n).f1 == 1.0
        assert rouge_l(tokens, tokens).f1 == 1.0


def test_empty_inputs_score_zero():
    assert rouge_n([], ["a"], 1).f1 == 0.0
    assert rouge_n(["a"], [], 1).f1 == 0.0
    assert rouge_l([], ["a"]).f1 == 0.0
    # system shorter than n has no n-grams at all
    assert rouge_n(["a"], ["a", "b"], 2).f1 == 0.0


def test_clipping_limits_repeated_tokens():
    # "the" appears 3 times in the system but once in the reference
    score = rouge_n("the the the".split(), "the cat".split(), 1)
    assert score.precision == pytest.approx(1 / 3)
    assert score.recall == pytest.approx(1 / 2)
    assert score.f1 == pytest.approx(0.4)


def test_precision_recall_exchange_symmetry():
    rng = np.random.default_rng(8)
    vocab = [f"t{i}" for i in range(12)]
    for _ in range(30):
        a = list(rng.choice(vocab, size=rng.integers(1, 15)))
        b = list(rng.choice(vocab, size=rng.integers(1, 15)))
        for n in (1, 2):
            ab = rouge_n(a, b, n)
            ba = rouge_n(b, a, n)
            assert ab.precision == pytest.approx(ba.recall)
            assert ab.recall == pytest.approx(ba.precision)


def test_lcs_length_basics():
    assert Reference(["a", "c"]).lcs(["a", "b", "c"]) == 2
    assert Reference(["a"]).lcs([]) == 0
    assert Reference([]).lcs(["a"]) == 0
    assert Reference(["y"]).lcs(["x"]) == 0
    seq = ["a", "b", "a", "b"]
    assert Reference(seq).lcs(seq) == 4


def test_lcs_symmetry_and_bounds():
    rng = np.random.default_rng(3)
    vocab = [f"t{i}" for i in range(6)]
    for _ in range(40):
        a = list(rng.choice(vocab, size=rng.integers(0, 12)))
        b = list(rng.choice(vocab, size=rng.integers(0, 12)))
        l = Reference(b).lcs(a)
        assert l == Reference(a).lcs(b) == dp_lcs_length(a, b)
        assert 0 <= l <= min(len(a), len(b))
