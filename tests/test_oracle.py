import warnings
from unittest import mock

import numpy as np
import pytest

from sectsum import (
    CorpusError,
    SegLabelConvention,
    SynthConfig,
    boundary_labels,
    build_labels,
    candidate_score,
    generate_synthetic,
    greedy_summary_labels,
    oracle,
    tokenize,
    rouge_n,
)
from sectsum.rouge import Reference, RunningOverlap

from conftest import make_doc, rescoring_greedy_labels


def test_worked_three_sentence_fixture():
    """Greedy selection on the handcrafted document.

    Sentences: "alpha beta" / "gamma delta" / "alpha beta gamma",
    reference "alpha beta gamma delta". Sentence 2 has the best single-pick
    average of unigram and bigram F; adding sentence 1 still improves it, and
    sentence 0 then adds nothing. Labels [0, 1, 1], picks (2, 1).
    """
    doc = make_doc()
    labels, order = greedy_summary_labels(doc)
    assert labels == (0, 1, 1)
    assert order == (2, 1)


def test_first_pick_matches_brute_force_argmax():
    rng = np.random.default_rng(21)
    vocab = [f"v{i}" for i in range(15)]
    for _ in range(30):
        n = int(rng.integers(2, 7))
        texts = [" ".join(rng.choice(vocab, size=rng.integers(2, 7)))
                 for _ in range(n)]
        ref = " ".join(rng.choice(vocab, size=rng.integers(3, 10)))
        doc = make_doc(texts=texts, section_starts=(0,), reference=ref)
        _, order = greedy_summary_labels(doc)
        ref_tokens = tokenize(ref)
        singles = [candidate_score({i}, doc, ref_tokens) for i in range(n)]
        best = max(singles)
        if best <= 0.0:
            assert order == ()
        else:
            # ties break toward the lowest index
            assert order[0] == singles.index(best)


def test_score_sequence_strictly_increases():
    docs = generate_synthetic(SynthConfig(n_documents=10, rng_seed=2))
    for doc in docs:
        _, order = greedy_summary_labels(doc)
        ref_tokens = tokenize(doc.reference_summary)
        prev = 0.0
        chosen = set()
        for pick in order:
            chosen.add(pick)
            score = candidate_score(chosen, doc, ref_tokens)
            assert score > prev
            prev = score


def test_greedy_stops_when_no_improvement():
    # a duplicate of the single reference sentence cannot improve the score
    doc = make_doc(texts=["x y", "x y"], section_starts=(0,), reference="x y")
    labels, order = greedy_summary_labels(doc)
    assert order == (0,)
    assert labels == (1, 0)


def test_zero_bigram_denominators_score_zero_without_warnings():
    """A one-token reference has no bigrams, a one-token candidate neither,
    and "." has no tokens: those F1 terms are 0.0, with no divide warning."""
    doc = make_doc(texts=["a", "b c", "."], section_starts=(0,), reference="a")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert greedy_summary_labels(doc) == ((1, 0, 0), (0,))


def test_greedy_tie_breaks_to_lowest_index():
    doc = make_doc(texts=["p q", "p q", "r s"], section_starts=(0,),
                   reference="p q")
    _, order = greedy_summary_labels(doc)
    assert order[0] == 0


def test_max_sentences_caps_selection():
    docs = generate_synthetic(SynthConfig(n_documents=5, rng_seed=6))
    for doc in docs:
        labels, order = greedy_summary_labels(doc, max_sentences=1)
        assert len(order) <= 1
        assert sum(labels) == len(order)


def test_missing_reference_raises():
    doc = make_doc(reference=None)
    with pytest.raises(CorpusError, match="no reference summary"):
        greedy_summary_labels(doc)


def test_candidate_score_concatenates_in_document_order():
    doc = make_doc()
    ref_tokens = tokenize(doc.reference_summary)
    # order of the selected set must not matter
    assert candidate_score([2, 1], doc, ref_tokens) == \
        candidate_score([1, 2], doc, ref_tokens)
    joined = tokenize(doc.sentences[1].text + " " + doc.sentences[2].text)
    expected = 0.5 * (rouge_n(joined, ref_tokens, 1).f1
                      + rouge_n(joined, ref_tokens, 2).f1)
    assert candidate_score([1, 2], doc, ref_tokens) == pytest.approx(expected)


def test_boundary_labels_conventions():
    doc = make_doc(texts=["a"] * 6, section_starts=(0, 3))
    assert boundary_labels(doc, SegLabelConvention.FIRST) == (1, 0, 0, 1, 0, 0)
    assert boundary_labels(doc, SegLabelConvention.LAST) == (0, 0, 1, 0, 0, 1)
    single = make_doc(texts=["a"] * 3, section_starts=(0,))
    assert boundary_labels(single, SegLabelConvention.FIRST) == (1, 0, 0)
    assert boundary_labels(single, SegLabelConvention.LAST) == (0, 0, 1)


def test_build_labels_bundle():
    doc = make_doc()
    labels, = build_labels([doc], convention=SegLabelConvention.LAST)
    assert labels.summary_labels == (0, 1, 1)
    assert labels.selection_order == (2, 1)
    assert labels.boundary_labels == (0, 1, 1)  # starts (0, 2), n = 3


def test_oracle_labels_consistent_on_synthetic(tiny_corpus):
    for doc in tiny_corpus:
        labels, order = greedy_summary_labels(doc)
        assert sum(labels) == len(order)
        for pick in order:
            assert labels[pick] == 1


def test_incremental_oracle_matches_full_rescoring_on_long_documents():
    """Bit for bit against the rescoring definition on ~200-sentence
    documents, where junction bigrams between selected sentences matter."""
    docs = generate_synthetic(SynthConfig(
        n_documents=3, sections_per_document=(20, 20),
        sentences_per_section=(10, 10), rng_seed=13))
    for doc in docs:
        assert len(doc.sentences) >= 200
        for cap in (None, 5):
            assert greedy_summary_labels(doc, max_sentences=cap) == \
                rescoring_greedy_labels(doc, max_sentences=cap)



def test_pick_that_the_rescore_disagrees_with_raises():
    """Every accepted pick is rescored from dict counts apart from the array
    state: a best candidate's ROUGE-1 moved up by one ulp in the arrays is
    still picked, and the labeling raises, naming the document. A group's
    longest selection is also rescored from scratch, which must agree too."""
    joined = RunningOverlap.joined

    def one_ulp_off(self, candidates):
        r1, r2 = joined(self, candidates)
        best = np.argmax(0.5 * (r1 + r2))
        r1[best] = np.nextafter(r1[best], np.inf)
        return r1, r2

    with mock.patch.object(RunningOverlap, "joined", one_ulp_off):
        with pytest.raises(RuntimeError, match="document 'doc0'.* differ from the running"):
            build_labels([make_doc()])
    with mock.patch.object(oracle, "candidate_score", lambda *args: np.nextafter(
            candidate_score(*args), np.inf)):
        with pytest.raises(RuntimeError, match="document 'doc0'.* differs from the full"):
            build_labels([make_doc()])

def test_groups_take_documents_by_width_within_the_cell_budget():
    """Sorted stably by scoring width, a group takes the next document while
    its padded cells, (rows + n) x W, stay within the budget; a document over
    the budget runs alone."""
    docs = generate_synthetic(SynthConfig(n_documents=40, rng_seed=3))
    references = [Reference(tokenize(d.reference_summary)) for d in docs]
    widths = [len(r.ngrams(1)) + 1 + len(r.ngrams(2)) for r in references]
    rows = [len(d.sentences) for d in docs]
    counts = {}
    for budget in (1, 600, 3000, 2 ** 15):
        with mock.patch.object(oracle, "_GROUP_CELLS", budget):
            groups = oracle._groups(widths, docs)
        counts[budget] = len(groups)
        assert [i for g in groups for i in g] == sorted(range(len(docs)), key=widths.__getitem__)
        for g in groups:
            assert len(g) == 1 or sum(rows[i] for i in g) * widths[g[-1]] <= budget
        for g, following in zip(groups, groups[1:]):
            first = following[0]
            assert (sum(rows[i] for i in g) + rows[first]) * widths[first] > budget
    assert counts[1] == 40 and 1 < counts[3000] < 40
