"""Turning head scores into summaries and section boundaries, plus the
prediction JSONL format.

Prediction records look like:

    {"id": "...", "selected": [int, ...], "boundaries": [0, ...],
     "scores_sum": [float, ...], "scores_seg": [float, ...],
     "summary_text": "..."}

``boundaries`` are predicted section-start indices and always include 0.
:func:`paired` is the one place a prediction meets its document.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .corpus import CorpusError, _atomic_write, _int_list, _read_jsonl
from .encoder import _naming_stack, base_features, forward_document
from .oracle import SegLabelConvention

__all__ = [
    "Prediction",
    "ranking",
    "select_top_k",
    "predict_boundaries",
    "render_summary",
    "predict_document",
    "paired",
    "write_predictions",
    "read_predictions",
]

DEFAULT_BOUNDARY_THRESHOLD = 0.5

# Largest G * n_heads * n * n size of the one live attention-score array of a
# prediction stack of G documents of n sentences: peak memory stays bounded
# whatever the corpus size, while short documents still share one pass.
# training.grad_check caps the G parameter rows of a probe chunk by it too.
_STACK_ATTENTION_ENTRIES = 2 ** 18


@dataclass(frozen=True)
class Prediction:
    """Scores and decisions for one document."""

    doc_id: str
    selected: tuple
    boundaries: tuple
    scores_sum: tuple
    scores_seg: tuple


def ranking(scores):
    """Sentence indices by descending score, ties toward the lower index."""
    scores = np.asarray(scores, dtype=float)
    # lexsort's last key dominates: sort by descending score, then index.
    return np.lexsort((np.arange(scores.shape[0]), -scores))


def select_top_k(scores, k):
    """Indices of the ``k`` largest scores, ties broken toward the lower
    index, returned in ascending index order. ``k`` beyond the score count
    selects everything."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return tuple(sorted(ranking(scores)[:k].tolist()))


def predict_boundaries(scores, threshold=DEFAULT_BOUNDARY_THRESHOLD,
                       convention=SegLabelConvention.FIRST):
    """Predicted section-start indices from boundary scores.

    Sentences scoring at or above the threshold are boundary-labeled. Under
    the FIRST convention those sentences are themselves section starts; under
    the LAST convention a labeled sentence closes a section, so the start is
    the following index (a label on the final sentence opens nothing).
    Index 0 is always a section start.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"boundary threshold must be finite, got {threshold}")
    convention = SegLabelConvention(convention)
    scores = np.asarray(scores, dtype=float)
    n = scores.shape[0]
    hits = np.flatnonzero(scores >= threshold)
    if convention is SegLabelConvention.FIRST:
        starts = {int(i) for i in hits}
    else:
        starts = {int(i) + 1 for i in hits if i + 1 < n}
    starts.add(0)
    return tuple(sorted(starts))


def render_summary(doc, selected):
    """Join the selected sentences' text in document order."""
    return " ".join(doc.sentences[i].text for i in sorted(selected))


def predict_document(docs, params, config, k,
                     threshold=DEFAULT_BOUNDARY_THRESHOLD,
                     convention=SegLabelConvention.FIRST):
    """Score documents and apply both decision rules; returns their
    predictions in the order given.

    Documents of one sentence count n are stacked in the order given, at most
    ``_STACK_ATTENTION_ENTRIES // (n_heads * n * n)`` to a stack and at least
    one, so a stack's attention scores stay within that budget. Each stack
    takes one value-only forward pass and is never padded, and the corpus is
    featurized in one :func:`base_features` call, so each prediction is bit
    for bit the one the document gets alone. A :class:`MemoryError` names the
    stack it is raised in.
    """
    features = base_features(docs, config)
    by_length = {}  # sentence count -> input positions, in first-seen order
    for i, doc in enumerate(docs):
        by_length.setdefault(len(doc.sentences), []).append(i)
    predictions = [None] * len(docs)
    for n, group in by_length.items():
        size = max(1, _STACK_ATTENTION_ENTRIES // (params.n_heads * n * n))
        for start in range(0, len(group), size):
            stack = group[start:start + size]
            stack_docs = [docs[i] for i in stack]
            with _naming_stack(stack_docs):
                enc = forward_document(stack_docs, params, config,
                                       [features[i] for i in stack], with_caches=False)
            for i, summary_probs, boundary_probs in zip(stack, enc.summary_probs,
                                                        enc.boundary_probs):
                predictions[i] = Prediction(
                    doc_id=docs[i].id,
                    selected=select_top_k(summary_probs, k),
                    boundaries=predict_boundaries(boundary_probs, threshold=threshold,
                                                  convention=convention),
                    scores_sum=tuple(summary_probs.tolist()),
                    scores_seg=tuple(boundary_probs.tolist()),
                )
    return predictions


def paired(predictions, documents):
    """Yield ``(prediction, document)`` for each prediction, in prediction
    order. Raises :class:`CorpusError` naming the document when a prediction
    has no document, an index outside [0, n) or a score list whose length is
    not the document's sentence count n."""
    by_id = {doc.id: doc for doc in documents}
    for pred in predictions:
        doc = by_id.get(pred.doc_id)
        if doc is None:
            raise CorpusError(f"prediction for unknown document {pred.doc_id!r}")
        n = len(doc.sentences)
        if (len(pred.scores_sum) != n or len(pred.scores_seg) != n
                or not all(0 <= i < n for i in pred.selected + pred.boundaries)):
            raise CorpusError(
                f"prediction for document {doc.id!r} does not fit its {n} sentences: "
                f"indices must lie in [0, {n}) and each score list needs {n} entries")
        yield pred, doc


def write_predictions(predictions, documents, path):
    """Write prediction JSONL; ``documents`` supplies the sentence text for
    the rendered ``summary_text`` field."""
    with _atomic_write(path, encoding="utf-8") as fh:
        for pred, doc in paired(predictions, documents):
            record = {
                "id": pred.doc_id,
                "selected": list(pred.selected),
                "boundaries": list(pred.boundaries),
                "scores_sum": list(pred.scores_sum),
                "scores_seg": list(pred.scores_seg),
                "summary_text": render_summary(doc, pred.selected),
            }
            fh.write(json.dumps(record, ensure_ascii=False))
            fh.write("\n")


def _distinct_indices(value, name):
    indices = _int_list(value, name)
    if len(set(indices)) != len(indices):
        raise CorpusError(f"{name} repeats an index")
    return indices


def _record_to_prediction(record):
    if not isinstance(record["id"], str):
        raise CorpusError(f"id must be a string, got {record['id']!r}")
    record["id"].encode("utf-8")  # a lone surrogate raises UnicodeEncodeError
    pred = Prediction(
        doc_id=record["id"],
        selected=_distinct_indices(record["selected"], "selected"),
        boundaries=_distinct_indices(record["boundaries"], "boundaries"),
        scores_sum=tuple(record["scores_sum"]),
        scores_seg=tuple(record["scores_seg"]),
    )
    # JSON booleans parse as bool, which math.isfinite would accept
    if not all(type(v) in (int, float) and math.isfinite(v)
               for v in pred.scores_sum + pred.scores_seg):
        raise CorpusError("non-finite or non-numeric score in prediction record")
    return pred


def read_predictions(path):
    """Read prediction JSONL back into :class:`Prediction` objects. A record
    that repeats an earlier record's id, or an index within its ``selected``
    or ``boundaries``, raises :class:`CorpusError`."""
    return _read_jsonl(path, _record_to_prediction, lambda pred: pred.doc_id)
