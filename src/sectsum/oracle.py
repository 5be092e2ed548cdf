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

from bisect import bisect, insort
from collections import Counter
from enum import Enum

from .corpus import CorpusError, LabelSet, tokenize
from .rouge import _ngrams, _score, rouge_n

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


def candidate_score(selected_indices, doc, reference_tokens):
    """Average of ROUGE-1 F and ROUGE-2 F for the candidate selection.

    Candidate sentences are concatenated in document order regardless of the
    order they were picked in.
    """
    tokens = doc.summary_tokens(selected_indices)
    r1 = rouge_n(tokens, reference_tokens, 1).f1
    r2 = rouge_n(tokens, reference_tokens, 2).f1
    return 0.5 * (r1 + r2)


def _gain(room, delta):
    """Change of the clipped overlap when ``delta`` (pairs of n-gram and
    count change) joins a selection; ``room[g]`` is the reference count of
    ``g`` minus the selection's. Sum of min(sys + d, ref) - min(sys, ref)."""
    gain = 0
    for g, d in delta:
        r = room[g]
        gain += min(d, r) - min(0, r)
    return gain


def greedy_summary_labels(doc, max_sentences=None):
    """Greedy extractive target for one document.

    Parameters
    ----------
    doc : Document
        Must carry a non-empty ``reference_summary`` (else :class:`CorpusError`).
    max_sentences : int or None
        Optional non-negative cap on the number of selected sentences.

    Returns
    -------
    (summary_labels, selection_order) : (tuple of 0/1, tuple of int)
        ``selection_order`` records picks in greedy order. Ties on the score
        break toward the lowest sentence index; the loop stops as soon as no
        candidate strictly improves the score, so partial scores along
        ``selection_order`` are strictly increasing.

    Each candidate is scored from integer counts: the clipped unigram and
    bigram overlap of the selection, its token count, and the gain the
    candidate's own n-grams bring. The selection is read in document order,
    so a candidate landing between selected sentences ``a < i < b`` also
    adds the junction bigrams (last(a), first(i)) and (last(i), first(b))
    and removes (last(a), first(b)); sentences without tokens are skipped.
    The counts go through the same float arithmetic as
    :func:`candidate_score`, which rescores every accepted pick once and
    must agree exactly. A step costs O(total tokens of the document).
    """
    if max_sentences is not None and max_sentences < 0:
        raise ValueError(f"max_sentences must be non-negative, got {max_sentences}")
    if not doc.reference_summary:
        raise CorpusError(f"document {doc.id!r} has no reference summary to label against")
    reference_tokens = tokenize(doc.reference_summary)
    n = len(doc.sentences)
    limit = n if max_sentences is None else min(max_sentences, n)
    n_ref = len(reference_tokens)

    # reference count minus selection count, per reference n-gram
    room1 = Counter(reference_tokens)
    room2 = _ngrams(reference_tokens, 2)
    tokens = [s.tokens for s in doc.sentences]
    unigrams = [[(g, c) for g, c in Counter(t).items() if g in room1]
                for t in tokens]
    bigrams = [{g: c for g, c in _ngrams(t, 2).items() if g in room2}
               for t in tokens]

    spans = []  # selected indices in document order, all with tokens

    def bigram_delta(i):
        """Bigram count changes from inserting sentence ``i`` into the
        selection."""
        k = bisect(spans, i)
        junctions = []
        if k:
            junctions.append(((tokens[spans[k - 1]][-1], tokens[i][0]), 1))
        if k < len(spans):
            junctions.append(((tokens[i][-1], tokens[spans[k]][0]), 1))
            if k:
                junctions.append(((tokens[spans[k - 1]][-1], tokens[spans[k]][0]), -1))
        delta = bigrams[i]
        if junctions:
            delta = dict(delta)
            for g, d in junctions:
                if g in room2:
                    delta[g] = delta.get(g, 0) + d
        return delta.items()

    selected = []
    overlap1 = overlap2 = n_tokens = 0
    best_score = 0.0
    while len(selected) < limit:
        best_idx = None
        best_candidate = best_score
        for i in range(n):
            # a sentence without tokens scores exactly the current selection
            if not tokens[i] or i in spans:
                continue
            delta2 = bigram_delta(i)
            size = n_tokens + len(tokens[i])
            r1 = _score(overlap1 + _gain(room1, unigrams[i]), size, n_ref).f1
            r2 = _score(overlap2 + _gain(room2, delta2), max(size - 1, 0),
                        max(n_ref - 1, 0)).f1
            score = 0.5 * (r1 + r2)
            if score > best_candidate:
                best_candidate = score
                best_idx = i
        if best_idx is None:
            break
        delta2 = list(bigram_delta(best_idx))
        overlap1 += _gain(room1, unigrams[best_idx])
        overlap2 += _gain(room2, delta2)
        for g, c in unigrams[best_idx]:
            room1[g] -= c
        for g, d in delta2:
            room2[g] -= d
        n_tokens += len(tokens[best_idx])
        insort(spans, best_idx)
        selected.append(best_idx)
        best_score = candidate_score(selected, doc, reference_tokens)
        if best_score != best_candidate:
            raise RuntimeError(
                f"document {doc.id!r}: incremental oracle score {best_candidate!r} "
                f"differs from the full rescore {best_score!r} after picking "
                f"sentence {best_idx}")

    labels = [0] * n
    for i in selected:
        labels[i] = 1
    return tuple(labels), tuple(selected)


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
