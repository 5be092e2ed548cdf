import json

import numpy as np
import pytest

from sectsum import (
    CorpusError,
    Document,
    SegLabelConvention,
    predict_boundaries,
    predict_document,
    read_predictions,
    render_summary,
    select_top_k,
    write_predictions,
)

from sectsum import inference

from conftest import make_doc


def test_select_top_k_basic_and_sorted():
    scores = np.array([0.1, 0.9, 0.3, 0.7])
    assert select_top_k(scores, 2) == (1, 3)
    assert select_top_k(scores, 10) == (0, 1, 2, 3)
    assert select_top_k(scores, 0) == ()


def test_select_top_k_tie_breaks_to_lower_index():
    scores = np.array([0.5, 0.9, 0.9, 0.9])
    assert select_top_k(scores, 2) == (1, 2)
    assert select_top_k(np.array([0.9, 0.1, 0.9]), 1) == (0,)


def test_select_top_k_rejects_negative_k():
    with pytest.raises(ValueError):
        select_top_k(np.array([0.5]), -1)


def test_predict_boundaries_first_convention():
    scores = np.array([0.9, 0.2, 0.8])
    assert predict_boundaries(scores, 0.5, SegLabelConvention.FIRST) == (0, 2)
    # index zero is always a section start even when its score is low
    assert predict_boundaries(np.array([0.1, 0.9, 0.1]), 0.5,
                              SegLabelConvention.FIRST) == (0, 1)


def test_predict_boundaries_last_convention():
    # a positive at index i closes a section, so i + 1 starts the next one;
    # a positive on the final sentence adds no new start
    scores = np.array([0.1, 0.8, 0.1, 0.9])
    assert predict_boundaries(scores, 0.5, SegLabelConvention.LAST) == (0, 2)
    assert predict_boundaries(np.array([0.9, 0.1]), 0.5,
                              SegLabelConvention.LAST) == (0, 1)


@pytest.mark.parametrize("convention, starts", [
    (SegLabelConvention.FIRST, (0, 2)),
    (SegLabelConvention.LAST, (0, 3)),
])
def test_score_exactly_at_the_threshold_is_a_boundary(convention, starts):
    """"At or above": a score equal to the threshold labels its sentence."""
    scores = np.array([0.1, 0.3, 0.7, 0.2, 0.1])
    assert predict_boundaries(scores, 0.7, convention) == starts


def test_render_summary_sorted_join():
    doc = make_doc()
    assert render_summary(doc, (2, 0)) == "alpha beta alpha beta gamma"
    assert render_summary(doc, ()) == ""


def test_predict_document_fields(small_model, tiny_corpus):
    config, params = small_model
    doc = tiny_corpus[0]
    [pred] = predict_document([doc], params, config, k=3)
    assert pred.doc_id == doc.id
    assert len(pred.selected) == 3
    assert pred.selected == tuple(sorted(pred.selected))
    assert len(pred.scores_sum) == len(doc)
    assert len(pred.scores_seg) == len(doc)
    assert 0 in pred.boundaries
    top = select_top_k(np.asarray(pred.scores_sum), 3)
    assert pred.selected == top


def _docs_of_lengths(lengths):
    rng = np.random.default_rng(4)
    return [Document.build(f"d{i}", [" ".join(f"w{v}" for v in rng.integers(0, 12, 4))
                                     for _ in range(n)])
            for i, n in enumerate(lengths)]


def _record_stacks(monkeypatch):
    """Wrap ``forward_document`` as :func:`predict_document` calls it;
    returns the ids of each call's documents. Each call must be value-only
    and unpadded: documents of one sentence count n, one row of n scores
    each."""
    forward, stacks = inference.forward_document, []

    def recording(docs, *args, **kwargs):
        assert kwargs == {"with_caches": False}
        [n] = {len(doc.sentences) for doc in docs}
        enc = forward(docs, *args, **kwargs)
        assert enc.summary_probs.shape == enc.boundary_probs.shape == (len(docs), n)
        stacks.append([doc.id for doc in docs])
        return enc

    monkeypatch.setattr(inference, "forward_document", recording)
    return stacks


@pytest.mark.parametrize("budget, expected", [
    (None, [["d0", "d2", "d3", "d5", "d7"], ["d1", "d6"], ["d4"]]),
    # two 6-sentence documents at 2 heads: the group of five splits
    (2 * 2 * 6 * 6, [["d0", "d2"], ["d3", "d5"], ["d7"], ["d1", "d6"], ["d4"]]),
], ids=["default", "split"])
def test_stacked_documents_get_their_predictions_alone(small_model, monkeypatch, budget,
                                                       expected):
    """Documents are stacked by sentence count in corpus order, one forward
    pass a stack, and every document gets, in corpus order, bit for bit the
    prediction it gets alone."""
    config, params = small_model
    docs = _docs_of_lengths([6, 4, 6, 6, 9, 6, 4, 6])
    alone = [predict_document([doc], params, config, k=2)[0] for doc in docs]
    if budget is not None:
        monkeypatch.setattr(inference, "_STACK_ATTENTION_ENTRIES", budget)
    stacks = _record_stacks(monkeypatch)
    assert predict_document(docs, params, config, k=2) == alone
    assert stacks == expected


def test_predict_document_never_pads(small_model, monkeypatch):
    """Documents of different lengths never share a forward pass, and no
    documents take none."""
    config, params = small_model
    stacks = _record_stacks(monkeypatch)
    assert predict_document([], params, config, k=2) == []
    assert stacks == []
    preds = predict_document(_docs_of_lengths([6, 4]), params, config, k=2)
    assert stacks == [["d0"], ["d1"]]
    assert [len(pred.scores_sum) for pred in preds] == [6, 4]


def test_predictions_round_trip(tmp_path, small_model, tiny_corpus):
    config, params = small_model
    preds = [predict_document([doc], params, config, k=2)[0] for doc in tiny_corpus]
    path = tmp_path / "predictions.jsonl"
    write_predictions(preds, tiny_corpus, path)
    loaded = read_predictions(path)
    assert [p.doc_id for p in loaded] == [p.doc_id for p in preds]
    for a, b in zip(loaded, preds):
        assert a.selected == b.selected
        assert a.boundaries == b.boundaries
        np.testing.assert_allclose(a.scores_sum, b.scores_sum)


def test_write_predictions_unknown_document(tmp_path, small_model, tiny_corpus):
    config, params = small_model
    [pred] = predict_document([tiny_corpus[0]], params, config, k=1)
    ghost = pred.__class__(doc_id="missing", selected=(0,), boundaries=(0,),
                           scores_sum=(0.5,), scores_seg=(0.5,))
    with pytest.raises(CorpusError, match="missing"):
        write_predictions([ghost], tiny_corpus, tmp_path / "p.jsonl")


def test_read_predictions_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = ('{"id": "a", "selected": [0], "boundaries": [0], '
            '"scores_sum": [0.5], "scores_seg": [0.5]}')
    path.write_text(good + "\nnonsense\n")
    with pytest.raises(CorpusError, match="line 2"):
        read_predictions(path)
    path.write_text('{"selected": [0]}\n')
    with pytest.raises(CorpusError, match="line 1: missing key 'id'"):
        read_predictions(path)


@pytest.mark.parametrize("field, value", [("scores_sum", "NaN"),
                                          ("scores_seg", "Infinity"),
                                          ("scores_sum", "-Infinity"),
                                          ("scores_seg", "true")])
def test_read_predictions_rejects_non_finite_scores(tmp_path, field, value):
    record = {"id": "a", "selected": [0], "boundaries": [0],
              "scores_sum": [0.5, 0.25], "scores_seg": [0.5, 0.25]}
    path = tmp_path / "preds.jsonl"
    good = json.dumps(record)
    record[field] = [0.5, json.loads(value)]
    path.write_text(good + "\n" + json.dumps(record) + "\n")
    assert value in path.read_text()
    with pytest.raises(CorpusError, match="line 2: non-finite"):
        read_predictions(path)
