import dataclasses

import numpy as np
import pytest

from sectsum import (
    Prediction,
    SynthConfig,
    approx_randomization_test,
    boundary_proximity_histogram,
    evaluate_full,
    generate_synthetic,
    seg_f1,
    windowdiff,
    with_references,
)
from sectsum import evaluation

from conftest import loop_score_vs_k, make_doc


def test_seg_f1_fixture():
    """Reference boundaries {3, 6}, hypothesis {3}: P = 1, R = 1/2, F = 2/3."""
    score = seg_f1({3}, {3, 6})
    assert score.precision == 1.0
    assert score.recall == pytest.approx(0.5)
    assert score.f1 == pytest.approx(2 / 3)


def test_seg_f1_ignores_position_zero():
    # index 0 is a boundary by construction, never scored
    a = seg_f1({0, 3}, {0, 3, 6})
    b = seg_f1({3}, {3, 6})
    assert a == b


def test_seg_f1_empty_cases():
    assert seg_f1(set(), set()).f1 == 1.0
    assert seg_f1({0}, {0}).f1 == 1.0  # nothing left after dropping zero
    assert seg_f1({3}, set()).f1 == 0.0
    assert seg_f1(set(), {3}).f1 == 0.0


def test_seg_f1_identity():
    assert seg_f1({2, 5, 9}, {2, 5, 9}).f1 == 1.0


def test_seg_f1_range_check():
    with pytest.raises(ValueError):
        seg_f1({12}, {3}, n=10)


def test_windowdiff_fixture():
    """n = 8, reference boundary {4}, empty hypothesis.

    Two reference segments give k = round(8 / 4) = 2; of the six windows
    (i, i+2], exactly the two spanning position 4 disagree: WD = 1/3.
    """
    assert windowdiff(set(), {4}, 8) == pytest.approx(1 / 3)


def test_windowdiff_identical_is_zero():
    assert windowdiff({4}, {4}, 8) == 0.0
    assert windowdiff(set(), set(), 8) == 0.0


def test_windowdiff_short_document_rejected():
    with pytest.raises(ValueError, match="too short"):
        windowdiff(set(), set(), 1)


def test_windowdiff_detects_more_disagreement():
    near = windowdiff({3}, {4}, 12)
    far = windowdiff({9}, {4}, 12)
    assert 0.0 < near <= far


def test_boundary_proximity_histogram_offsets():
    """Sections 0-4 and 5-9: index 0 is the first sentence (+1), index 4 the
    last of its section (-1), index 6 the second of its section (+2), and
    index 7 sits three from both ends, where ties resolve positive (+3)."""
    hist = boundary_proximity_histogram([0, 4, 6, 7], (0, 5), 10)
    assert hist == {-1: 1, 1: 1, 2: 1, 3: 1}


def test_boundary_proximity_histogram_prefers_smaller_magnitude():
    # one section of five: index 3 is second from the end (-2), not +4
    hist = boundary_proximity_histogram([3], (0,), 5)
    assert hist == {-2: 1}


def test_boundary_proximity_histogram_validation():
    with pytest.raises(ValueError):
        boundary_proximity_histogram([0], (1,), 5)  # starts must include 0
    with pytest.raises(ValueError):
        boundary_proximity_histogram([9], (0,), 5)  # index out of range


def test_approx_randomization_identical_scores():
    scores = [0.4, 0.6, 0.5]
    assert approx_randomization_test(scores, scores) == 1.0


def test_approx_randomization_separated_scores():
    rng = np.random.default_rng(0)
    a = rng.uniform(0.8, 0.9, size=40)
    b = rng.uniform(0.1, 0.2, size=40)
    p = approx_randomization_test(a, b, iterations=999, rng_seed=1)
    assert p == pytest.approx(1 / 1000)


def test_approx_randomization_properties():
    rng = np.random.default_rng(2)
    a = rng.uniform(size=25)
    b = a + rng.normal(scale=0.01, size=25)
    p1 = approx_randomization_test(a, b, iterations=200, rng_seed=3)
    p2 = approx_randomization_test(a, b, iterations=200, rng_seed=3)
    assert p1 == p2
    assert 0.0 < p1 <= 1.0
    with pytest.raises(ValueError):
        approx_randomization_test([0.1], [0.1, 0.2])


def _prediction_for(doc, selected, boundaries=(0,)):
    return Prediction(doc_id=doc.id, selected=tuple(selected),
                      boundaries=tuple(boundaries),
                      scores_sum=tuple(0.5 for _ in doc.sentences),
                      scores_seg=tuple(0.5 for _ in doc.sentences))


def test_evaluate_full_macro_averages_rouge():
    doc_a = make_doc(doc_id="a", texts=["x y", "q r"], section_starts=(0,),
                     reference="x y")
    doc_b = make_doc(doc_id="b", texts=["u v", "u w"], section_starts=(0,),
                     reference="u v")
    docs = [doc_a, doc_b]
    preds = [_prediction_for(doc_a, (0,)), _prediction_for(doc_b, (1,))]
    assert evaluate_full(with_references(preds[:1], docs)).rouge1.f1 == 1.0
    assert evaluate_full(with_references(preds[1:], docs)).rouge1.f1 == pytest.approx(0.5)
    report = evaluate_full(with_references(preds, docs))
    assert report.rouge1.f1 == pytest.approx(0.75)
    assert report.avg_summary_words == 2.0


def test_evaluate_full_averages_summary_words():
    """Summaries of 1, 2 and 6 words: the mean is 3.0, the median 2.0."""
    docs = [make_doc(doc_id=str(i), texts=[text, "z"], section_starts=(0,), reference="z")
            for i, text in enumerate(["a", "a b", "a b c d e f"])]
    scored = with_references([_prediction_for(doc, (0,)) for doc in docs], docs)
    assert evaluate_full(scored).avg_summary_words == 3.0


def test_evaluate_full_needs_reference():
    doc = make_doc(reference=None)
    with pytest.raises(Exception, match="reference"):
        with_references([_prediction_for(doc, (0,))], [doc])


def test_evaluate_full_report(tiny_corpus):
    docs = list(tiny_corpus)
    preds = []
    for doc in docs:
        selected = tuple(i for i, v in enumerate(doc.labels.summary_labels) if v)
        preds.append(_prediction_for(doc, selected, boundaries=doc.section_starts))
    report = evaluate_full(with_references(preds, docs))
    # selections equal to the planted summaries score perfect overlap
    assert report.rouge1.f1 == pytest.approx(1.0)
    assert report.rouge2.f1 == pytest.approx(1.0)
    assert report.rougeL.f1 == pytest.approx(1.0)
    # boundaries equal to the true section starts are a perfect segmentation
    assert report.seg_f1 == pytest.approx(1.0)
    assert report.windowdiff == pytest.approx(0.0)
    assert report.n_documents == len(docs)
    payload = dataclasses.asdict(report)
    assert payload["rouge1"] == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    assert payload["seg_f1"] == pytest.approx(1.0)


def test_score_vs_k_rows_match_the_per_k_loop():
    docs = generate_synthetic(SynthConfig(
        n_documents=7, sections_per_document=(1, 3),
        sentences_per_section=(1, 4), duplicate_rate=0.6, rng_seed=3))
    rng = np.random.default_rng(0)
    # scores on a coarse grid, so the ranking breaks ties
    predictions = []
    for doc in reversed(docs):
        scores = tuple(float(v) for v in rng.integers(0, 4, len(doc.sentences)) / 4)
        predictions.append(Prediction(doc.id, (), (0,), scores, scores))
    # past the longest document, so every document runs out of sentences
    k_max = max(len(doc.sentences) for doc in docs) + 2
    assert evaluation.score_vs_k(with_references(predictions, docs), k_max) == \
        loop_score_vs_k(predictions, docs, k_max)


def test_score_vs_k_sentence_between_two_picks_breaks_their_junction():
    """Sentences "a b", "x", "c d" ranked 0, 2, 1 against the reference "b c".
    k = 2 reads "a b c d": the junction bigram (b, c) matches, so ROUGE-2 is
    P 1/3, R 1, F 1/2. At k = 3 "x" lands between them, "a b x c d" has no
    reference bigram, and ROUGE-2 falls to 0. ROUGE-1 and ROUGE-L are P 1/2,
    R 1/2 (F 1/2) at k = 1, then P 2/4 (F 2/3) and P 2/5 (F 4/7) with R 1.
    k = 4 is past the document and reads k = 3."""
    doc = make_doc(texts=("a b", "x", "c d"), section_starts=(0,), reference="b c")
    scores = (0.9, 0.1, 0.5)
    rows = evaluation.score_vs_k(with_references([Prediction(doc.id, (), (0,), scores, scores)],
                                                 [doc]), 4)
    expected = [(1, 1 / 2, 0.0, 1 / 2, 2), (2, 2 / 3, 1 / 2, 2 / 3, 4),
                (3, 4 / 7, 0.0, 4 / 7, 5), (4, 4 / 7, 0.0, 4 / 7, 5)]
    assert [tuple(row.values()) for row in rows] == [pytest.approx(row) for row in expected]


@pytest.mark.parametrize("k_max", [0, -3])
def test_score_vs_k_needs_k_max_at_least_1(k_max):
    doc = make_doc()
    scores = (0.5, 0.25, 0.75)
    with pytest.raises(ValueError, match="at least 1"):
        evaluation.score_vs_k(with_references([Prediction(doc.id, (), (0,), scores, scores)], [doc]),
                              k_max)
