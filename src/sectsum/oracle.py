"""Heuristic extractive labels: greedy overlap-maximizing summary labels and
section boundary labels.

The greedy labeler builds the extractive target for a document by repeatedly
adding the sentence that most improves the average of unigram and bigram
overlap F1 against the abstractive reference, stopping at the first step with
no strict improvement. A step scores every open sentence at once: one
integer-array pass over the document's sentence x reference-n-gram counts,
O(sentences * reference n-gram types). Boundary labels mark either the first
or the last sentence of every section.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .corpus import CorpusError, LabelSet, tokenize
from .rouge import Reference, RunningOverlap, rouge_n

__all__ = [
    "SegLabelConvention",
    "greedy_summary_labels",
    "boundary_labels",
    "build_labels",
    "candidate_score",
]


class SegLabelConvention(str, Enum):
    """Which sentence of a section carries the boundary label."""

    FIRST = "first"
    LAST = "last"


def candidate_score(selected_indices, doc, reference):
    """Average of ROUGE-1 F and ROUGE-2 F for the candidate selection, its
    sentences read in document order, against reference tokens or a
    :class:`sectsum.rouge.Reference`."""
    tokens = doc.summary_tokens(selected_indices)
    r1 = rouge_n(tokens, reference, 1).f1
    r2 = rouge_n(tokens, reference, 2).f1
    return 0.5 * (r1 + r2)


def greedy_summary_labels(doc, max_sentences=None):
    """Greedy extractive target for one document: ``(summary_labels,
    selection_order)``, a tuple of 0/1 per sentence and the picks in greedy
    order. ``doc`` must carry a non-empty ``reference_summary`` (else
    :class:`CorpusError`); ``max_sentences`` optionally caps the picks.

    Ties on the score break toward the lowest sentence index; the loop stops
    as soon as no candidate strictly improves the score, so partial scores
    along ``selection_order`` are strictly increasing. A step scores all
    open sentences with tokens in one :meth:`sectsum.rouge.RunningOverlap.joined`
    array pass, in the float arithmetic of :func:`candidate_score`, which
    rescores every accepted pick and must agree exactly.
    """
    if max_sentences is not None and max_sentences < 0:
        raise ValueError(f"max_sentences must be non-negative, got {max_sentences}")
    if not doc.reference_summary:
        raise CorpusError(f"document {doc.id!r} has no reference summary to label against")
    reference = Reference(tokenize(doc.reference_summary))
    n = len(doc.sentences)
    limit = n if max_sentences is None else min(max_sentences, n)
    state = RunningOverlap(reference, [s.tokens for s in doc.sentences])
    # a sentence without tokens scores exactly the current selection
    open_ = np.array([bool(s.tokens) for s in doc.sentences], dtype=bool)
    selected, best_score = [], 0.0
    while len(selected) < limit and open_.any():
        candidates = np.flatnonzero(open_)
        r1, r2 = state.joined(candidates)
        scores = 0.5 * (r1 + r2)
        best = int(np.argmax(scores))  # the first maximum: the lowest index
        best_candidate = float(scores[best])
        if not best_candidate > best_score:
            break
        best_idx = int(candidates[best])
        state.add(best_idx)
        open_[best_idx] = False
        selected.append(best_idx)
        best_score = candidate_score(selected, doc, reference)
        if best_score != best_candidate:
            raise RuntimeError(
                f"document {doc.id!r}: incremental oracle score {best_candidate!r} "
                f"differs from the full rescore {best_score!r} after picking "
                f"sentence {best_idx}")

    chosen = set(selected)
    return tuple(int(i in chosen) for i in range(n)), tuple(selected)


def boundary_labels(doc, convention=SegLabelConvention.FIRST):
    """0/1 boundary labels for one document under the given convention.

    FIRST marks every sentence listed in ``section_starts``. LAST marks the
    sentence before every non-initial section start plus the final sentence.
    Both conventions mark exactly one sentence per section.
    """
    convention = SegLabelConvention(convention)
    n = len(doc.sentences)
    labels = [0] * n
    if convention is SegLabelConvention.FIRST:
        for b in doc.section_starts:
            labels[b] = 1
    else:
        for b in doc.section_starts:
            if b != 0:
                labels[b - 1] = 1
        labels[n - 1] = 1
    return tuple(labels)


def build_labels(doc, convention=SegLabelConvention.FIRST, max_sentences=None):
    """Full :class:`LabelSet` for a document: greedy summary labels plus
    boundary labels."""
    summary, order = greedy_summary_labels(doc, max_sentences=max_sentences)
    return LabelSet(
        summary_labels=summary,
        boundary_labels=boundary_labels(doc, convention),
        selection_order=order,
    )
