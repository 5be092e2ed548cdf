"""Heuristic extractive labels: greedy overlap-maximizing summary labels and
section boundary labels.

The greedy labeler builds the extractive target for a document by repeatedly
adding the sentence that most improves the average of unigram and bigram
overlap F1 against the abstractive reference, stopping at the first step with
no strict improvement (the SummaRuNNer oracle; Nallapati, Zhai & Zhou, AAAI
2017). It runs over groups of documents: sorted by scoring width W
(reference unigram types + 1 + bigram types), a group takes documents while
its padded count matrix, rows x W, stays within ``_GROUP_CELLS`` cells. One
array round of :class:`sectsum.rouge.RunningOverlap` scores every open
sentence of every open document in the group, O(open sentences * W), and
each document takes its first maximum. Accepting a pick stays per document:
a :class:`sectsum.rouge.Selection` of dict counts, sharing no state with the
arrays, rescores it (O(picks * tokens) per document), and
:func:`candidate_score`, the from-scratch scorer the tests use, rescores each
group's longest selection; a score that differs raises. A document's labels
do not depend on the documents it is grouped with. Boundary labels mark
either the first or the last sentence of every section.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .corpus import CorpusError, LabelSet, tokenize
from .rouge import Reference, RunningOverlap, Selection, rouge_n

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
    sentences read in document order, counted from scratch against reference
    tokens or a :class:`sectsum.rouge.Reference`."""
    tokens = doc.summary_tokens(selected_indices)
    r1 = rouge_n(tokens, reference, 1).f1
    r2 = rouge_n(tokens, reference, 2).f1
    return 0.5 * (r1 + r2)


# padded count cells, (rows + n) x W, a group of documents may take
_GROUP_CELLS = 2 ** 15


def _groups(widths, documents):
    """Documents cut into groups, by index: sorted stably by scoring width,
    a group takes the next document while its padded cells stay within
    ``_GROUP_CELLS``; a document over the budget runs alone."""
    groups, rows = [], 0
    for i in sorted(range(len(documents)), key=widths.__getitem__):
        n = len(documents[i].sentences)
        if groups and (rows + n) * widths[i] <= _GROUP_CELLS:
            groups[-1].append(i)
            rows += n
        else:
            groups.append([i])
            rows = n
    return groups


def _greedy_scan(documents, references, max_sentences):
    """Greedy picks of every document of one group, one array round scoring
    every open sentence of every open document."""
    state = RunningOverlap(references, [[s.tokens for s in d.sentences] for d in documents])
    selections = [Selection(r) for r in references]
    live = np.full(len(documents), max_sentences != 0)  # documents still picking
    # a sentence without tokens scores exactly the current selection
    open_ = state.lengths > 0
    selected = [[] for _ in documents]
    best_scores = [0.0] * len(documents)
    while True:
        candidates = np.flatnonzero(open_ & live[state.doc])
        if not len(candidates):
            break
        r1, r2 = state.joined(candidates)
        scores = 0.5 * (r1 + r2)
        docs = state.doc[candidates]
        starts = np.flatnonzero(np.diff(docs, prepend=-1))
        maxima = np.maximum.reduceat(scores, starts)
        hits = np.flatnonzero(scores == np.repeat(maxima, np.diff(starts, append=len(docs))))
        firsts = hits[np.searchsorted(hits, starts)]  # the first maximum: the lowest index
        for d, row, best, *pair in zip(docs[starts].tolist(), candidates[firsts].tolist(),
                                       *(a[firsts].tolist() for a in (scores, r1, r2))):
            if not best > best_scores[d]:
                live[d] = False
                continue
            state.add(row)
            open_[row] = False
            picks = selected[d]
            picks.append(row - int(state.starts[d]))
            selections[d].add(picks[-1], documents[d].sentences[picks[-1]].tokens)
            if selections[d].f1() != tuple(pair):
                raise RuntimeError(f"document {documents[d].id!r}: incremental oracle scores "
                                   f"{tuple(pair)!r} differ from the running rescore "
                                   f"{selections[d].f1()!r} after picking sentence {picks[-1]}")
            best_scores[d] = best
            if len(picks) == max_sentences:
                live[d] = False
    # an error the dicts and the arrays share: rescore the longest selection anew
    d = max(range(len(documents)), key=lambda d: len(selected[d]))
    if candidate_score(selected[d], documents[d], references[d]) != best_scores[d]:
        raise RuntimeError(f"document {documents[d].id!r}: oracle score {best_scores[d]!r} "
                           f"differs from the full rescore of picks {selected[d]}")
    return selected


def _greedy_orders(documents, max_sentences):
    """Each document's greedy picks in order, over groups of documents."""
    if max_sentences is not None and max_sentences < 0:
        raise ValueError(f"max_sentences must be non-negative, got {max_sentences}")
    for doc in documents:
        if not doc.reference_summary:
            raise CorpusError(f"document {doc.id!r} has no reference summary to label against")
    # scoring width W: reference unigram types + 1 + bigram types; each group
    # counts its references when it runs, so a corpus's counts are never all held
    tokens = [tokenize(doc.reference_summary) for doc in documents]
    widths = [len(set(t)) + 1 + len(set(zip(t, t[1:]))) for t in tokens]
    orders = [None] * len(documents)
    for group in _groups(widths, documents):
        picks = _greedy_scan([documents[i] for i in group],
                             [Reference(tokens[i]) for i in group], max_sentences)
        for i, order in zip(group, picks):
            orders[i] = tuple(order)
    return orders


def _summary_labels(doc, order):
    chosen = set(order)
    return tuple(int(i in chosen) for i in range(len(doc.sentences)))


def greedy_summary_labels(doc, max_sentences=None):
    """Greedy extractive target for one document: ``(summary_labels,
    selection_order)``, a tuple of 0/1 per sentence and the picks in greedy
    order. ``doc`` must carry a non-empty ``reference_summary`` (else
    :class:`CorpusError`); ``max_sentences`` optionally caps the picks.

    Ties on the score break toward the lowest sentence index; the loop stops
    as soon as no candidate strictly improves the score, so partial scores
    along ``selection_order`` are strictly increasing. This is
    :func:`build_labels`'s scan on a group of one document.
    """
    order, = _greedy_orders([doc], max_sentences)
    return _summary_labels(doc, order), order


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


def build_labels(documents, convention=SegLabelConvention.FIRST, max_sentences=None):
    """One :class:`LabelSet` per document of a corpus: greedy summary labels
    (see :func:`greedy_summary_labels`; ``max_sentences`` caps the picks)
    plus boundary labels. A document's labels do not depend on the rest of
    the corpus."""
    convention = SegLabelConvention(convention)
    return [LabelSet(summary_labels=_summary_labels(doc, order),
                     boundary_labels=boundary_labels(doc, convention),
                     selection_order=order)
            for doc, order in zip(documents, _greedy_orders(documents, max_sentences))]
