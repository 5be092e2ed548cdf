"""Corpus-level evaluation: macro-averaged overlap scores, the score-vs-k
sweep, exact boundary F1, WindowDiff, boundary-proximity histograms, and a
paired approximate randomization significance test.

Boundary evaluation always excludes index 0 (every document trivially starts
a section there).
"""

from __future__ import annotations

import math
from bisect import bisect
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import CorpusError, tokenize
from .inference import paired, ranking
from .rouge import Reference, RougeScore, Selection, _prf, rouge_l, rouge_n

__all__ = [
    "EvalReport",
    "seg_f1",
    "windowdiff",
    "boundary_proximity_histogram",
    "selection_histogram",
    "approx_randomization_test",
    "with_references",
    "evaluate_full",
    "score_vs_k",
]


def seg_f1(predicted, reference, n=None):
    """Exact-match boundary F1 over section-start indices.

    Index 0 is dropped from both sides before matching. When both sets are
    empty (beyond index 0) the score is defined as perfect; a one-sided empty
    set scores zero.
    """
    pred = {int(b) for b in predicted if int(b) != 0}
    ref = {int(b) for b in reference if int(b) != 0}
    if n is not None:
        for b in pred | ref:
            if not (0 < b < n):
                raise ValueError(f"boundary {b} out of range for n = {n}")
    if not pred and not ref:
        return RougeScore(1.0, 1.0, 1.0)
    return RougeScore(*_prf(len(pred & ref), len(pred), len(ref)))


def windowdiff(predicted, reference, n):
    """WindowDiff over sentence positions.

    The window size is half the mean reference segment length, rounded
    half-up and floored at 1: k = max(1, round(n / (2 * segments))). A sliding
    window of size k counts boundaries in (i, i + k] for both sides; the
    score is the fraction of the n - k windows whose counts disagree, read
    from running boundary counts in O(n). Raises ``ValueError`` when n <= k
    (undefined).
    """
    pred = {int(b) for b in predicted if 0 < int(b) < n}
    ref = {int(b) for b in reference if 0 < int(b) < n}
    n_segments = len(ref) + 1
    k = max(1, math.floor(n / (2.0 * n_segments) + 0.5))
    if n <= k:
        raise ValueError(f"document too short for WindowDiff (n = {n}, k = {k})")
    # surplus[j]: predicted minus reference boundaries at or before j
    surplus = np.zeros(n + 1, dtype=np.int64)
    surplus[list(pred)] += 1
    surplus[list(ref)] -= 1
    surplus = np.cumsum(surplus)
    return int(np.count_nonzero(surplus[k:n] != surplus[:n - k])) / (n - k)


def boundary_proximity_histogram(summary_indices, section_starts, n):
    """Histogram of summary-sentence offsets from their section boundaries.

    Offsets are 1-based: +1 means the first sentence of a section, -1 the
    last. Each sentence reports whichever offset has the smaller magnitude;
    ties go to the positive side. Returns {offset: count} sorted by offset.
    """
    starts = sorted({int(b) for b in section_starts})
    if not starts or starts[0] != 0 or starts[-1] >= n:
        raise ValueError("section_starts must begin at 0 and stay below n")
    counts = {}
    for idx in summary_indices:
        idx = int(idx)
        if not (0 <= idx < n):
            raise ValueError(f"summary index {idx} out of range")
        section = bisect(starts, idx) - 1
        start = starts[section]
        end = starts[section + 1] - 1 if section + 1 < len(starts) else n - 1
        positive = idx - start + 1
        negative = idx - end - 1
        offset = positive if abs(positive) <= abs(negative) else negative
        counts[offset] = counts.get(offset, 0) + 1
    return dict(sorted(counts.items()))


def selection_histogram(selections):
    """Boundary-proximity histogram summed over ``(document, selected)`` pairs."""
    counts = Counter()
    for doc, selected in selections:
        counts.update(boundary_proximity_histogram(selected, doc.section_starts,
                                                   len(doc.sentences)))
    return dict(sorted(counts.items()))


def approx_randomization_test(scores_a, scores_b, iterations=1000, rng_seed=0):
    """Two-sided paired approximate randomization test.

    Each iteration randomly swaps members of each pair (sign-flips the
    per-pair difference) and compares the absolute mean difference against
    the observed one. Returns the add-one-smoothed p-value
    (count + 1) / (iterations + 1); identical inputs give exactly 1.0.
    """
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("score lists must be 1-d and the same length")
    if a.size == 0:
        raise ValueError("empty score lists")
    if iterations < 1:
        raise ValueError("iterations must be positive")
    diffs = a - b
    observed = abs(diffs.mean())
    rng = np.random.default_rng(rng_seed)
    signs = rng.integers(0, 2, size=(iterations, diffs.size)) * 2 - 1
    pseudo = np.abs((signs * diffs).mean(axis=1))
    count = int((pseudo >= observed).sum())
    return (count + 1) / (iterations + 1)


@dataclass(frozen=True)
class EvalReport:
    """Aggregated corpus metrics; ``dataclasses.asdict`` gives its JSON form."""

    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore
    seg_precision: float
    seg_recall: float
    seg_f1: float
    windowdiff: float | None
    avg_summary_words: float
    n_documents: int


def _mean_rouge(scores):
    return RougeScore(
        precision=float(np.mean([s.precision for s in scores])),
        recall=float(np.mean([s.recall for s in scores])),
        f1=float(np.mean([s.f1 for s in scores])),
    )


def with_references(predictions, documents):
    """``(prediction, document, Reference)`` per prediction: an evaluation's
    one :func:`paired` walk, each reference counted once for all its scores."""
    scored = []
    for pred, doc in paired(predictions, documents):
        if not doc.reference_summary:
            raise CorpusError(f"document {doc.id!r} has no reference summary")
        scored.append((pred, doc, Reference(tokenize(doc.reference_summary))))
    return scored


def evaluate_full(scored):
    """Summary and segmentation metrics in one report, over the
    ``(prediction, document, reference)`` triples of :func:`with_references`.

    Overlap scores and summary length are macro-averaged over the
    predictions. Boundary metrics compare predicted section starts against
    each document's ``section_starts`` (index 0 excluded). WindowDiff
    averages over the documents where it is defined (n > k); it is None if
    no document qualifies.
    """
    if not scored:
        raise CorpusError("no predictions to evaluate")
    summaries, segs, wds = [], [], []
    for pred, doc, reference in scored:
        system = doc.summary_tokens(pred.selected)
        summaries.append((rouge_n(system, reference, 1), rouge_n(system, reference, 2),
                          rouge_l(system, reference), len(system)))
        n = len(doc.sentences)
        hyp, ref = set(pred.boundaries), set(doc.section_starts)
        segs.append(seg_f1(hyp, ref, n=n))
        try:
            wds.append(windowdiff(hyp, ref, n))
        except ValueError:
            pass
    r1, r2, rl, words = zip(*summaries)
    seg = _mean_rouge(segs)
    return EvalReport(
        rouge1=_mean_rouge(r1),
        rouge2=_mean_rouge(r2),
        rougeL=_mean_rouge(rl),
        seg_precision=seg.precision,
        seg_recall=seg.recall,
        seg_f1=seg.f1,
        windowdiff=float(np.mean(wds)) if wds else None,
        avg_summary_words=float(np.mean(words)),
        n_documents=len(scored),
    )


def _top_k_rows(doc, order, reference):
    """ROUGE-1, ROUGE-2 and ROUGE-L F1 and the word count of the summary of
    ``order[:k]`` (sentence indices in rank order) for k = 1..len(order), the
    floats :func:`rouge_n` and :func:`rouge_l` give, in one pass: a
    :class:`sectsum.rouge.Selection` keeps the ROUGE-1/2 counts, and
    ``lcs_rows`` the LCS row after each of its ``spans``, so a joining
    sentence reruns the rows from the one just before it."""
    selection = Selection(reference)
    n_ref, lcs_rows, rows = len(reference.tokens), [], []
    for i in order:
        p = selection.add(i, doc.sentences[i].tokens)
        if p is not None:
            v = lcs_rows[p - 1] if p else None
            lcs_rows.insert(p, None)
            for q in range(p, len(lcs_rows)):
                v = lcs_rows[q] = reference.lcs_row(selection.tokens[q], v)
        lcs = n_ref - lcs_rows[-1].bit_count() if lcs_rows else 0
        rows.append((*selection.f1(), _prf(lcs, selection.size, n_ref)[2], selection.size))
    return rows


def score_vs_k(scored, k_max):
    """Mean top-k ROUGE F1 and summary length for k = 1..k_max (at least 1)
    over the triples of :func:`with_references`, ranking each document's
    sentences by ``scores_sum``. Each document is swept once: its top
    ``k_max`` sentences join the selection in rank order, and ROUGE-1/2/L at
    each k are read from running counts and resumed LCS rows
    (:func:`_top_k_rows`). Past a document's length, k reads its last row."""
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    # per document, its (ROUGE-1, ROUGE-2, ROUGE-L, words) at k = 1..min(k_max, n)
    table = [_top_k_rows(doc, ranking(pred.scores_sum)[:k_max].tolist(), reference)
             for pred, doc, reference in scored]
    names = ("rouge1_f", "rouge2_f", "rougeL_f", "avg_words")
    return [{"k": k, **{name: float(np.mean([rows[min(k, len(rows)) - 1][m] for rows in table]))
                        for m, name in enumerate(names)}}
            for k in range(1, k_max + 1)]
