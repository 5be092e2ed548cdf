"""Heuristic extractive labels: greedy overlap-maximizing summary labels and
section boundary labels.

The greedy labeler builds the extractive target for a document by repeatedly
adding the sentence that most improves the average of unigram and bigram
overlap F1 against the abstractive reference, stopping at the first step with
no strict improvement. Each candidate is scored from running clipped n-gram
counts of the selection, so a step costs time linear in the document's
tokens. Boundary labels mark either the first or the last sentence of every
section.
"""

from __future__ import annotations

from enum import Enum

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
    along ``selection_order`` are strictly increasing. Each candidate is
    scored from the running clipped counts of a
    :class:`sectsum.rouge.RunningOverlap` (sentences without tokens are
    skipped), in the float arithmetic of :func:`candidate_score`, which
    rescores every accepted pick and must agree exactly. A step costs
    O(total tokens of the document).
    """
    if max_sentences is not None and max_sentences < 0:
        raise ValueError(f"max_sentences must be non-negative, got {max_sentences}")
    if not doc.reference_summary:
        raise CorpusError(f"document {doc.id!r} has no reference summary to label against")
    reference = Reference(tokenize(doc.reference_summary))
    n = len(doc.sentences)
    limit = n if max_sentences is None else min(max_sentences, n)
    tokens = [s.tokens for s in doc.sentences]
    state = RunningOverlap(reference, tokens)
    joined, spans = state.joined, state.spans  # the candidate loop is label's hot path

    selected = []
    best_score = 0.0
    while len(selected) < limit:
        best_idx = None
        best_candidate = best_score
        for i in range(n):
            # a sentence without tokens scores exactly the current selection
            if not tokens[i] or i in spans:
                continue
            r1, r2 = joined(i)
            score = 0.5 * (r1.f1 + r2.f1)
            if score > best_candidate:
                best_candidate = score
                best_idx = i
        if best_idx is None:
            break
        state.add(best_idx)
        selected.append(best_idx)
        best_score = candidate_score(selected, doc, reference)
        if best_score != best_candidate:
            raise RuntimeError(
                f"document {doc.id!r}: incremental oracle score {best_candidate!r} "
                f"differs from the full rescore {best_score!r} after picking "
                f"sentence {best_idx}")

    return tuple(int(i in spans) for i in range(n)), tuple(selected)


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
