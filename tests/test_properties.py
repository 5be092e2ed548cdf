"""Property tests of the metric, selection, oracle, DPP and featurizer
invariants, of ``label`` across corpora (metamorphic), of the batched forward
against its unbatched rows, and of the stacked training loss against the
one-document-at-a-time loop."""

import dataclasses
import math
import tempfile
from itertools import combinations, pairwise
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sectsum import (
    CUE_PHRASES, Document, FeatureConfig, LabelSet, Prediction, Sentence, SynthConfig,
    TrainConfig, TrainingError, Variant, base_features, boundary_proximity_histogram,
    brute_force_subset_sum, build_labels, candidate_score, corpus, dpp_loss_and_grad,
    encode_forward, evaluation, forward_document, generate_synthetic, grad_check, greedy_summary_labels, heads_forward,
    inference, init_params, oracle, parse_corpus, rouge_l, rouge_n, seg_f1, select_top_k,
    tokenize, total_loss, training, windowdiff, write_corpus,
)
from sectsum.cli import run
from sectsum.encoder import stable_sigmoid
from sectsum.rouge import Reference, Selection
from sectsum.training import DEFAULT_DPP_RIDGE

from conftest import (
    counter_rouge_n, dp_lcs_length, loop_base_features, loop_boundary_proximity_histogram,
    loop_grad_check, loop_score_vs_k, loop_term_grad_norms, loop_total_loss, loop_windowdiff,
    masked_sigmoid,
    primal_dpp_loss_and_grad, one_document, primal_kernel, rescoring_greedy_labels, subset_masks,
)

# derandomize: the same examples on every run, and no example database on disk
FAST = settings(max_examples=60, deadline=None, derandomize=True)

tokens = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=12)


@FAST
@given(tokens, tokens, st.integers(1, 3))
def test_rouge_scores_are_bounded(system, reference, n):
    for score in (rouge_n(system, reference, n), rouge_l(system, reference)):
        for value in (score.precision, score.recall, score.f1):
            assert 0.0 <= value <= 1.0


@FAST
@given(tokens.filter(lambda t: len(t) >= 2))
def test_rouge_self_score_is_one(text):
    assert rouge_n(text, text, 1).f1 == 1.0
    assert rouge_n(text, text, 2).f1 == 1.0
    assert rouge_l(text, text).f1 == 1.0


@FAST
@given(tokens, tokens, st.integers(1, 3))
def test_rouge_against_a_reference_object_equals_the_token_list_call(system, reference, n):
    assert dataclasses.astuple(rouge_n(system, reference, n)) == \
        counter_rouge_n(system, reference, n)
    counted = Reference(reference)
    for _ in range(2):  # the second pass reads the counts and masks kept from the first
        assert rouge_n(system, counted, n) == rouge_n(system, reference, n)
        assert rouge_l(system, counted) == rouge_l(system, reference)


# up to 150 tokens of four types: heavy repetition, and bitmasks of up to
# three 64-bit words
long_tokens = st.integers(0, 150).flatmap(
    lambda n: st.lists(st.sampled_from("abcd"), min_size=n, max_size=n))


@FAST
@given(long_tokens, long_tokens)
def test_lcs_length_matches_dynamic_program(a, b):
    assert Reference(b).lcs(a) == dp_lcs_length(a, b)
    assert Reference(a).lcs(b) == Reference(b).lcs(a)
    assert Reference([]).lcs(a) == Reference(a).lcs([]) == 0
    assert Reference(a).lcs(a) == len(a)
    # the row resumed after a prefix of the system (every seventh length) is the
    # row of one run
    reference = Reference(b)
    assert all(reference.lcs_row(a[j:], reference.lcs_row(a[:j])) == reference.lcs_row(a)
               for j in range(0, len(a) + 1, 7))


@FAST
@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=12),
       st.integers(0, 14))
def test_select_top_k_returns_k_ascending_lowest_index_ties(scores, k):
    picked = select_top_k(np.array(scores), k)
    assert len(picked) == min(k, len(scores))
    assert list(picked) == sorted(set(picked))
    # a reference ranking: descending score, then ascending index
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    assert set(picked) == set(ranked[:k])


boundary_sets = st.builds(
    lambda n, bits: (n, {i for i in range(1, n) if bits >> i & 1}),
    st.integers(2, 30), st.integers(0, 2 ** 30))


@FAST
@given(boundary_sets)
def test_seg_f1_is_one_on_identical_sets(case):
    n, bounds = case
    assert seg_f1(bounds, set(bounds), n=n).f1 == 1.0


@FAST
@given(boundary_sets, st.integers(0, 2 ** 30))
def test_windowdiff_bounds_and_identity(case, other_bits):
    n, ref = case
    hyp = {i for i in range(1, n) if other_bits >> i & 1}
    assert 0.0 <= windowdiff(hyp, ref, n) <= 1.0
    assert windowdiff(ref, set(ref), n) == 0.0


def _outcome(fn, *args):
    """``fn(*args)``, or ``ValueError`` if it raises one."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


# boundaries outside (0, n) on both sides; n = 1 leaves no window (n <= k)
@FAST
@given(st.integers(1, 30), st.sets(st.integers(-3, 33)), st.sets(st.integers(-3, 33)))
def test_windowdiff_matches_the_window_scan(n, predicted, reference):
    assert _outcome(windowdiff, predicted, reference, n) == \
        _outcome(loop_windowdiff, predicted, reference, n)


# section starts that may miss 0, summary indices that may leave [0, n)
@FAST
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.integers(0, n - 1)), st.lists(st.integers(-2, n + 1), max_size=12))))
def test_boundary_histogram_matches_the_section_scan(case):
    n, starts, indices = case
    assert _outcome(boundary_proximity_histogram, indices, starts, n) == \
        _outcome(loop_boundary_proximity_histogram, indices, starts, n)


# sentences of a small vocabulary, with punctuation-only (no tokens),
# single-token and repeated-token sentences
sentence_texts = st.one_of(
    st.sampled_from(["...", "!", "-- ?"]),
    st.sampled_from(["a", "b", "a."]),
    st.lists(st.sampled_from(["a", "b", "c", "d", "a,"]), min_size=1,
             max_size=6).map(" ".join),
)
oracle_docs = st.builds(
    lambda texts, ref: Document.build("d", texts, section_starts=[0],
                                      reference_summary=ref),
    st.lists(sentence_texts, min_size=1, max_size=10),
    st.lists(st.sampled_from(["a", "b", "c", "e"]), min_size=1,
             max_size=12).map(" ".join))


@settings(FAST, max_examples=300)
@given(oracle_docs, st.one_of(st.none(), st.integers(1, 4)))
def test_greedy_oracle_properties(doc, max_sentences):
    labels, order = greedy_summary_labels(doc, max_sentences=max_sentences)
    assert (labels, order) == rescoring_greedy_labels(doc, max_sentences)
    reference_tokens = tokenize(doc.reference_summary)
    prev = 0.0
    for k in range(1, len(order) + 1):
        score = candidate_score(order[:k], doc, reference_tokens)
        assert score > prev
        prev = score
    singles = [candidate_score([i], doc, reference_tokens)
               for i in range(len(doc.sentences))]
    if max(singles) > 0.0:
        assert order[0] == singles.index(max(singles))
    else:
        assert order == ()


@st.composite
def oracle_corpora(draw):
    """One to twelve documents, each on the shared words or on its own copy
    of them (each word suffixed "q<i>"), with token-less and repeated
    sentences and references of zero, one or more tokens."""
    documents = []
    for i in range(draw(st.integers(1, 12))):
        texts = draw(st.lists(sentence_texts, min_size=1, max_size=8))
        texts += draw(st.lists(st.sampled_from(texts), max_size=2))
        reference = draw(st.one_of(st.sampled_from(["...", "a", "e."]), st.lists(
            st.sampled_from(["a", "b", "c", "e"]), min_size=2, max_size=10).map(" ".join)))
        suffix = draw(st.sampled_from(["", f"q{i}"]))
        own = lambda text: " ".join(w + suffix if tokenize(w) else w for w in text.split())
        documents.append(Document.build(f"d{i}", [own(t) for t in texts], section_starts=[0],
                                        reference_summary=own(reference)))
    return documents


# One group at the default budget: d1 gains the junction bigram (b, a) that
# no other document's reference holds, and d2's two sentences tie.
one_group = [Document.build(f"d{i}", texts, section_starts=[0], reference_summary=reference)
             for i, (texts, reference) in enumerate([
                 (["a b", "c"], "a b c"), (["b", "a"], "a b a"), (["a b", "a b", "c"], "a b")])]


@settings(FAST, max_examples=200)
@given(oracle_corpora(), st.sampled_from([None, 0, 1, 3]), st.integers(1, 800))
@example(one_group, None, 2 ** 15)
def test_grouped_oracle_labels_every_document_as_alone(documents, cap, budget):
    """``build_labels`` scans the corpus in groups cut by a cell budget, here
    small enough to split the corpus mid-way (or to leave every document
    alone); each document still gets the rescoring definition's labels, and
    those of its own one-document scan."""
    with mock.patch.object(oracle, "_GROUP_CELLS", budget):
        labels = build_labels(documents, max_sentences=cap)
        alone = [greedy_summary_labels(doc, cap) for doc in documents]
    for doc, label, one in zip(documents, labels, alone):
        assert (label.summary_labels, label.selection_order) == one == \
            rescoring_greedy_labels(doc, cap)


def _corpus(prefix):
    """Up to four oracle documents with ids ``prefix0``, ``prefix1``, ..."""
    return st.lists(oracle_docs, min_size=1, max_size=4).map(
        lambda docs: [dataclasses.replace(d, id=f"{prefix}{j}") for j, d in enumerate(docs)])


def _label_lines(documents, *flags):
    """``label`` on a corpus of ``documents``: each output line by document id,
    and the whole output."""
    with tempfile.TemporaryDirectory() as tmp:
        raw, out = Path(tmp) / "raw.jsonl", Path(tmp) / "labeled.jsonl"
        write_corpus(documents, raw)
        assert run(["label", "--corpus", str(raw), "--out", str(out), *flags]) == 0
        labeled = out.read_bytes()
    return {d.id: line for d, line in zip(documents, labeled.splitlines())}, labeled


@settings(FAST, max_examples=30)
@given(_corpus("d"), st.sampled_from([(), ("--max-sentences", "2")]))
def test_label_is_idempotent_on_its_own_output(documents, flags):
    _, once = _label_lines(documents, *flags)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labeled.jsonl"
        path.write_bytes(once)
        assert run(["label", "--corpus", str(path), "--in-place", *flags]) == 0
        assert path.read_bytes() == once


@settings(FAST, max_examples=30)
@given(_corpus("d"), _corpus("e"), st.lists(st.booleans(), min_size=4, max_size=4))
def test_labels_of_a_document_ignore_the_rest_of_the_corpus(documents, others, keep):
    """Reversing the corpus, or dropping some documents and adding others,
    leaves every remaining document's labeled line byte for byte the same."""
    lines, _ = _label_lines(documents)
    assert _label_lines(documents[::-1])[0] == lines
    kept = [d for d, k in zip(documents, keep) if k]
    changed, _ = _label_lines(others[:1] + kept[::-1] + others[1:])
    assert {d.id: changed[d.id] for d in kept} == {d.id: lines[d.id] for d in kept}


@st.composite
def synth_corpora(draw):
    """A synthetic corpus in which some sentences are non-ASCII text, and some
    documents have no labels (``labels: null``), no selection order or no
    reference summary."""
    documents = generate_synthetic(SynthConfig(
        n_documents=draw(st.integers(1, 4)), sections_per_document=(1, 3),
        sentences_per_section=(1, 4), rng_seed=draw(st.integers(0, 2 ** 16))))
    words = ["naïve", "日本", "Café", "Ωmega", "—", "😀", "\\", '"q"', "w"]
    text = st.lists(st.sampled_from(words), min_size=1, max_size=6).map(" ".join)
    changed = []
    for doc in documents:
        sentences = tuple(Sentence.from_text(draw(text)) if draw(st.booleans()) else s
                          for s in doc.sentences)
        labels = draw(st.sampled_from([None, doc.labels, dataclasses.replace(
            doc.labels, selection_order=None)]))
        reference = draw(st.sampled_from([None, doc.reference_summary, draw(text)]))
        changed.append(dataclasses.replace(doc, sentences=sentences, labels=labels,
                                           reference_summary=reference))
    return changed


@settings(FAST, max_examples=40)
@given(synth_corpora())
def test_write_parse_write_reproduces_the_bytes(documents):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.jsonl", Path(tmp) / "second.jsonl"
        write_corpus(documents, first)
        parsed, skipped = parse_corpus(first)
        assert skipped == 0 and parsed == documents
        write_corpus(parsed, second)
        assert second.read_bytes() == first.read_bytes()


# Sequences of the four kinds of call that generate_synthetic makes: random;
# integers over [0, n) (a power-of-two n has a zero rejection threshold, which
# a draw often meets exactly) and over [lo, hi) (one value takes no draw);
# choice without replacement (small populations repeat draws in Floyd's loop);
# and shuffle.
sampler_calls = st.lists(st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), st.one_of(
        st.integers(1, 2 ** 31), st.sampled_from([2 ** k for k in range(32)]))),
    st.tuples(st.just("integers"), st.integers(0, 50), st.integers(1, 9)).map(
        lambda call: (call[0], call[1], call[1] + call[2])),
    st.integers(3, 114).flatmap(lambda n: st.tuples(
        st.just("choice"), st.just(n), st.integers(1, min(7, n)))),
    st.tuples(st.just("shuffle"), st.integers(0, 11)),
), max_size=200)


@pytest.mark.parametrize("chunk", [1, 3, corpus._RAW_CHUNK])
@settings(FAST, max_examples=40)
@given(st.integers(0, 2 ** 64), sampler_calls)
@example(0, [("integers", 2 ** 31)] * 8 + [("choice", 3, 3)] * 8 + [("shuffle", 11)])
def test_synth_sampler_draws_what_numpy_generator_draws(chunk, seed, calls):
    """``corpus._Draws`` gives, call for call, the values of the same calls on
    ``np.random.default_rng(seed)``, whatever the raw outputs fetched at a
    time (chunks of 1 and 3 end inside a buffered 32-bit half). The synth
    pins in ``tests/test_determinism_pin.py`` rest on this sampler and on
    PCG64's raw outputs, not on numpy's sampling code; so if a numpy release
    changes ``Generator``'s algorithms, this test marks the divergence while
    the pins still hold."""
    rng = np.random.default_rng(seed)
    with mock.patch.object(corpus, "_RAW_CHUNK", chunk):
        draws = corpus._Draws(seed)
        for name, *args in calls:
            if name == "random":
                assert draws.random() == rng.random()
            elif name == "integers":
                assert draws.integers(*args) == rng.integers(*args)
            elif name == "choice":
                population = list(range(100, 100 + args[0]))
                assert draws.choice(population, args[1]) == \
                    rng.choice(population, args[1], replace=False).tolist()
            else:
                ours, theirs = list(range(args[0])), list(range(args[0]))
                draws.shuffle(ours)
                rng.shuffle(theirs)
                assert ours == theirs
        assert draws.integers(2 ** 31) == rng.integers(2 ** 31)  # the buffered half too
        assert draws.random() == rng.random()


def test_synth_sampler_refuses_what_it_does_not_reproduce():
    """numpy draws from 2**32 values by a plain 32-bit draw, and takes more
    than a fiftieth of a population over 10,000 by a tail shuffle; the
    sampler raises on both, and on an empty range, rather than differ."""
    draws = corpus._Draws(0)
    for args in ((2 ** 32,), (0, 2 ** 32 + 5), (5, 5)):
        with pytest.raises(ValueError):
            draws.integers(*args)
    with pytest.raises(ValueError, match="tail shuffle"):
        draws.choice(range(10001), 201)
    assert draws.choice(range(10001), 200) == \
        np.random.default_rng(0).choice(10001, 200, replace=False).tolist()


@st.composite
def sweeps(draw):
    """Up to three documents of sentences drawn from a pool of at most four
    (so sentences repeat), with punctuation-only ones, scores on a coarse grid
    (so ranks tie) and ``k_max`` up to past the longest document."""
    documents, predictions = [], []
    for j in range(draw(st.integers(1, 3))):
        pool = draw(st.lists(sentence_texts, min_size=1, max_size=4))
        texts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
        reference = " ".join(draw(st.lists(st.sampled_from(["a", "b", "c", "e"]),
                                           min_size=1, max_size=12)))
        documents.append(Document.build(f"d{j}", texts, reference_summary=reference))
        scores = tuple(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5]),
                                     min_size=len(texts), max_size=len(texts))))
        predictions.append(Prediction(f"d{j}", (), (0,), scores, scores))
    return documents, predictions, draw(st.integers(1, 12))


@settings(FAST, max_examples=200)
@given(sweeps())
def test_score_vs_k_matches_the_per_k_rescoring(sweep):
    documents, predictions, k_max = sweep
    assert evaluation.score_vs_k(evaluation.with_references(predictions, documents), k_max) == \
        loop_score_vs_k(predictions, documents, k_max)


@st.composite
def selection_orders(draw):
    """A document of one- to three-token sentences on three words, some
    punctuation-only, a reference on those words and one more (so unigrams
    and bigrams repeat, and junction bigrams are reference bigrams), and a
    random order of some of its sentences with tokens."""
    texts = draw(st.lists(st.just("...") | st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                                                    max_size=3).map(" ".join),
                          min_size=1, max_size=8))
    reference = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=10))
    doc = Document.build("d", texts, reference_summary=" ".join(reference))
    order = draw(st.permutations([i for i, s in enumerate(doc.sentences) if s.tokens]))
    return doc, order[:draw(st.integers(0, len(order)))]


# Both examples have one-token sentences and a reference with repeated
# unigrams and bigrams. In the first, "b" lands between "a" and "c" and makes
# the reference bigrams (a, b) and (b, c); in the second, "c" lands between
# "a" and "b" and breaks the reference bigram (a, b), and "a b" then makes
# (b, a).
@settings(FAST, max_examples=300)
@given(selection_orders())
@example((Document.build("d", ["a", "b", "c", "a b"], reference_summary="a b a b c"),
          [0, 2, 1, 3]))
@example((Document.build("d", ["a", "c", "b", "a b"], reference_summary="a b a b c"),
          [0, 2, 1, 3]))
def test_selection_scores_each_pick_as_rouge_n(case):
    """After every pick, a ``Selection``'s (ROUGE-1 F1, ROUGE-2 F1) are the
    floats ``rouge_n`` gives on the picked sentences in document order."""
    doc, order = case
    reference_tokens = tokenize(doc.reference_summary)
    selection = Selection(Reference(reference_tokens))
    for k, i in enumerate(order, 1):
        selection.add(i, doc.sentences[i].tokens)
        tokens = doc.summary_tokens(order[:k])
        assert selection.f1() == (rouge_n(tokens, reference_tokens, 1).f1,
                                  rouge_n(tokens, reference_tokens, 2).f1)


# n <= 8 encoded sentences of width 1-4, so minors wider than that are
# singular and lean on the training ridge; every coordinate away from zero (no
# zero-norm row), qualities in [0.05, 1]
dpp_instances = st.tuples(st.integers(1, 8), st.integers(1, 4)).flatmap(
    lambda shape: st.tuples(
        st.lists(st.lists(st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
                          min_size=shape[1], max_size=shape[1]),
                 min_size=shape[0], max_size=shape[0]),
        st.lists(st.floats(0.05, 1.0), min_size=shape[0], max_size=shape[0])))


@FAST
@given(dpp_instances)
def test_dpp_normalizer_and_subset_log_probs(instance):
    """The normalizer identity holds, and every non-empty subset, all of them
    in one stack, has a log-probability -loss of at most 0."""
    hidden, quality = np.array(instance[0]), np.array(instance[1])
    kernel = primal_kernel(hidden, quality)[0]
    n = len(quality)
    assert brute_force_subset_sum(kernel) == pytest.approx(
        np.linalg.det(kernel + np.eye(n)), rel=1e-9)
    subsets = [subset for size in range(1, n + 1) for subset in combinations(range(n), size)]
    loss = one_document(hidden, quality, subsets, ridge=DEFAULT_DPP_RIDGE, with_grads=False)
    assert np.all(-loss.value <= 0.0)


# n <= 8 sentences of width 1-6 with a non-empty subset Y of at most that
# width, qualities in [0.05, 0.95]
well_posed_dpp = st.tuples(st.integers(1, 8), st.integers(1, 6)).flatmap(
    lambda shape: st.tuples(
        st.lists(st.lists(st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
                          min_size=shape[1], max_size=shape[1]),
                 min_size=shape[0], max_size=shape[0]),
        st.lists(st.floats(0.05, 0.95), min_size=shape[0], max_size=shape[0]),
        st.sets(st.integers(0, shape[0] - 1), min_size=1,
                max_size=min(shape)).map(sorted)))


@FAST
@given(well_posed_dpp)
def test_dpp_gradient_matches_primal_reference(instance):
    hidden, quality, subset = np.array(instance[0]), np.array(instance[1]), instance[2]
    kernel = primal_kernel(hidden, quality)[0]
    # well conditioned: the subset minor is far from singular, so the ridge
    # never escalates
    assume(np.linalg.cond(kernel[np.ix_(subset, subset)]) < 1e4)
    value, d_hidden, d_quality = primal_dpp_loss_and_grad(
        hidden, quality, subset, DEFAULT_DPP_RIDGE)
    loss = one_document(hidden, quality, [subset], ridge=DEFAULT_DPP_RIDGE)
    # the dual normalizer log det(I_d + B^T B) rounds differently
    assert loss.value[0] == pytest.approx(value, rel=1e-12)
    assert loss.ridge_used == DEFAULT_DPP_RIDGE
    np.testing.assert_allclose(loss.d_hidden[0], d_hidden, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(loss.d_quality[0], d_quality, rtol=1e-9, atol=1e-12)


@FAST
@given(well_posed_dpp.flatmap(lambda instance: st.tuples(
    st.just(instance), st.permutations(range(len(instance[1]))))), st.integers(1, 3))
def test_dpp_loss_is_invariant_to_row_order(drawn, extra):
    """Permuting a document's rows, with Y permuted to match, keeps the value
    up to rounding and permutes the gradients: for each document alone, and
    for the original and the permuted document as one stack padded by
    ``extra`` rows."""
    (hidden, quality, subset), perm = drawn
    hidden, quality, perm = np.array(hidden), np.array(quality), np.array(perm)
    kernel = primal_kernel(hidden, quality)[0]
    assume(np.linalg.cond(kernel[np.ix_(subset, subset)]) < 1e4)
    n, d = hidden.shape
    # row j of the permuted document is row perm[j] of the original
    moved = [j for j in range(n) if perm[j] in subset]
    loss = one_document(hidden, quality, [subset])
    stack_hidden = np.ones((2, n + extra, d))
    stack_quality = np.full((2, n + extra), 0.5)
    stack_hidden[0, :n], stack_hidden[1, :n] = hidden, hidden[perm]
    stack_quality[0, :n], stack_quality[1, :n] = quality, quality[perm]
    stacked = dpp_loss_and_grad(stack_hidden, stack_quality,
                                subset_masks([subset, moved], n + extra), [n, n])
    permuted = one_document(hidden[perm], quality[perm], [moved])
    for value, d_hidden, d_quality in (
            (permuted.value[0], permuted.d_hidden[0], permuted.d_quality[0]),
            (stacked.value[1], stacked.d_hidden[1, :n], stacked.d_quality[1, :n])):
        assert value == pytest.approx(loss.value[0], rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(d_hidden, loss.d_hidden[0, perm], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(d_quality, loss.d_quality[0, perm], rtol=1e-9, atol=1e-12)
    assert stacked.value[0] == pytest.approx(loss.value[0], rel=1e-12, abs=1e-12)


# 2-4 documents of width 2-6 and distinct lengths 1-8, each with a non-empty
# subset Y of at most min(length, width) sentences
dpp_stacks = st.integers(2, 6).flatmap(lambda d: st.lists(
    st.integers(1, 8), min_size=2, max_size=4, unique=True).flatmap(
    lambda lengths: st.tuples(*(st.tuples(
        st.lists(st.lists(st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
                          min_size=d, max_size=d), min_size=n, max_size=n),
        st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n),
        st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, d)).map(sorted))
        for n in lengths))))


@FAST
@given(dpp_stacks)
def test_stacked_dpp_matches_the_primal_reference_per_document(documents):
    """A stack of documents of different lengths and summary sizes, padded
    with rows that would change any document they leaked into: each
    document's value and gradients are those of the primal reference on it
    alone, so neither the identity-padded minors nor the batched solves mix
    documents, and padded rows get zero gradients."""
    documents = [(np.array(h), np.array(q), y) for h, q, y in documents]
    for hidden, quality, subset in documents:
        kernel = primal_kernel(hidden, quality)[0]
        assume(np.linalg.cond(kernel[np.ix_(subset, subset)]) < 1e4)
    lengths = [len(q) for _, q, _ in documents]
    n, d = max(lengths), documents[0][0].shape[1]
    stack_hidden = np.full((len(documents), n, d), 2.0)
    stack_quality = np.full((len(documents), n), 0.9)
    for g, (hidden, quality, _) in enumerate(documents):
        stack_hidden[g, :lengths[g]], stack_quality[g, :lengths[g]] = hidden, quality
    loss = dpp_loss_and_grad(stack_hidden, stack_quality,
                             subset_masks([y for _, _, y in documents], n), lengths,
                             ridge=DEFAULT_DPP_RIDGE)
    assert list(loss.ridges) == [DEFAULT_DPP_RIDGE] * len(documents)
    for g, (hidden, quality, subset) in enumerate(documents):
        value, d_hidden, d_quality = primal_dpp_loss_and_grad(
            hidden, quality, subset, DEFAULT_DPP_RIDGE)
        m = lengths[g]
        # the tolerances of test_dpp_gradient_matches_primal_reference
        assert loss.value[g] == pytest.approx(value, rel=1e-12)
        np.testing.assert_allclose(loss.d_hidden[g, :m], d_hidden, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(loss.d_quality[g, :m], d_quality, rtol=1e-9, atol=1e-12)
        assert not loss.d_hidden[g, m:].any() and not loss.d_quality[g, m:].any()


# A stack of 1-4 cross-entropy rows padded to width 1-8: each entry is a
# probability, inside the clamp or on or past it, and a 0/1 label; entries
# past a row's length are padding and may hold anything.
clamped_probs = st.sampled_from([0.0, 1e-9, 1.0 - 1e-9, 1.0])
bce_stacks = st.integers(1, 8).flatmap(lambda n: st.lists(
    st.tuples(st.integers(1, n),
              st.lists(st.tuples(st.floats(0.01, 0.99) | clamped_probs, st.integers(0, 1)),
                       min_size=n, max_size=n)),
    min_size=1, max_size=4))


@FAST
@given(bce_stacks)
def test_bce_gradient_matches_central_differences(rows):
    """``bce_loss(..., with_grads=True)`` on padded rows: its gradient is the
    central difference of its value on real entries the clamp leaves alone,
    exactly zero on clamped and on padded entries, and its values are
    bitwise those of a value-only call."""
    lengths = np.array([length for length, _ in rows])
    probs = np.array([[p for p, _ in entries] for _, entries in rows])
    labels = np.array([[y for _, y in entries] for _, entries in rows], dtype=float)
    values, grads = training.bce_loss(probs, labels, lengths, with_grads=True)
    alone, no_grads = training.bce_loss(probs, labels, lengths)
    assert no_grads is None and values.tobytes() == alone.tobytes()
    frozen = ((probs < 1e-7) | (probs > 1.0 - 1e-7)
              | (np.arange(probs.shape[1]) >= lengths[:, None]))
    assert not grads[frozen].any()
    step = 1e-6
    for b, j in zip(*np.nonzero(~frozen)):
        up, down = probs.copy(), probs.copy()
        up[b, j] += step
        down[b, j] -= step
        fd = (training.bce_loss(up, labels, lengths)[0][b]
              - training.bce_loss(down, labels, lengths)[0][b]) / (2.0 * step)
        assert grads[b, j] == pytest.approx(fd, rel=1e-6, abs=1e-6)


# Two heads' cross-entropy rows, stacked: 1-4 rows per head padded to width
# 1-8, each row's length shared by both heads, the entries as above.
two_head_stacks = st.integers(1, 8).flatmap(lambda n: st.integers(1, 4).flatmap(
    lambda g: st.tuples(
        st.lists(st.integers(1, n), min_size=g, max_size=g),
        st.lists(st.lists(st.tuples(st.floats(0.01, 0.99) | clamped_probs, st.integers(0, 1)),
                          min_size=n, max_size=n), min_size=2 * g, max_size=2 * g))))


@FAST
@given(two_head_stacks)
def test_two_head_bce_stack_matches_each_head_bit_for_bit(stack):
    """One ``bce_loss`` call over a (2, G, n) stack of both heads gives each
    head's means and gradients bit for bit as a call on that head alone,
    padded and clamped entries included; so does one document's label row
    broadcast against every row of probabilities."""
    lengths, entries = stack
    lengths = np.array(lengths)
    g, n = len(lengths), len(entries[0])
    probs = np.array([[p for p, _ in row] for row in entries]).reshape(2, g, n)
    labels = np.array([[y for _, y in row] for row in entries], dtype=float).reshape(2, g, n)
    shared = np.broadcast_to(lengths[0], g)
    for head_labels, head_lengths in ((labels, lengths), (labels[:, :1], shared)):
        values, grads = training.bce_loss(probs, head_labels, head_lengths, with_grads=True)
        assert values.shape == (2, g) and grads.shape == (2, g, n)
        for head in range(2):
            alone, alone_grads = training.bce_loss(probs[head], head_labels[head],
                                                   head_lengths, with_grads=True)
            assert values[head].tobytes() == alone.tobytes()
            assert grads[head].tobytes() == alone_grads.tobytes()


# Logits: any float64, and the values where the two forms of the logistic
# meet an edge: signed zeros, infinities, NaN of either sign, |z| at and past
# exp's underflow (745.13) and overflow (709.78), and subnormals.
sigmoid_edges = st.sampled_from([
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 709.79, -709.79, 745.0, -745.0,
    745.2, -745.2, 1e308, -1e308, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 36.8, -36.8])
sigmoid_inputs = st.lists(st.floats(allow_subnormal=True) | sigmoid_edges, min_size=1,
                          max_size=40)


@FAST
@given(sigmoid_inputs, st.integers(1, 3))
@example([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 745.0, -746.0, 5e-324,
          -5e-324], 2)
def test_stable_sigmoid_is_the_two_branch_formula_bit_for_bit(values, rows):
    """``stable_sigmoid`` computes both forms over the whole array and
    selects; every output bit, NaN sign and payload included, is the one the
    gathered two-branch formula gives, in one row or several."""
    z = np.array(values * rows).reshape(rows, -1)
    assert stable_sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()


# Words with case, unicode, inner and pure punctuation, regex metacharacters
# ("xzy" matches an unescaped "x.y") and cue-phrase words; the w-words widen
# the vocabulary so TF-IDF rows get long.
feature_words = st.sampled_from(
    ["a", "B", "naïve", "日本", "Café", "--", "...", "it's", "x.y", "xzy", "(", "f(x)",
     "so", "next", "we", "need", "moving", "on", "to"] + [f"w{i}" for i in range(30)])
feature_docs = st.builds(
    lambda texts: Document.build("d", texts),
    st.lists(st.lists(feature_words, max_size=12).map(" ".join), min_size=1,
             max_size=20))


def _own_words(doc, i):
    """``doc`` with each word that has a token suffixed "q<i>", so documents
    renamed with distinct ``i`` share no word type."""
    return Document.build(doc.id, [
        " ".join(w + f"q{i}" if tokenize(w) else w for w in sent.text.split())
        for sent in doc.sentences])


# One to six documents, each on the shared words or renamed onto its own, so
# a corpus mixes shared and disjoint vocabularies.
feature_corpora = st.lists(st.tuples(feature_docs, st.booleans()), min_size=1,
                           max_size=6).map(
    lambda drawn: [_own_words(doc, i) if own else doc for i, (doc, own) in enumerate(drawn)])


# Cue lexicons: none, the default, phrases with uppercase letters and regex
# metacharacters, and one with an empty phrase, which flags every sentence.
cue_lexicons = [(), CUE_PHRASES, ("CAFÉ", "x.y", "("), ("Naïve B", "")]
cue_doc = Document.build("d", ["Café w1", "xzy", "f(x) w2", "naïve b"])
# punctuation only: no word types at all, so a zero centroid
blank_doc = Document.build("d", ["-- ...", "(", ""])
# a token-less sentence, whose zero row must not divide by its zero norm
gap_doc = Document.build("d", ["w1 a", "--", "w2 w1 moving on"])


@settings(FAST, max_examples=200)
@given(feature_corpora, st.integers(4, 9), st.sampled_from(cue_lexicons))
@example([cue_doc], 4, cue_lexicons[0])
@example([cue_doc], 4, cue_lexicons[2])
@example([cue_doc], 4, cue_lexicons[3])
@example([blank_doc, gap_doc, cue_doc], 4, cue_lexicons[1])
def test_base_features_match_the_loop_reference(docs, buckets, lexicon):
    """Each document's matrix from one call over the corpus equals the loop
    reference and the document's own one-document call, bit for bit."""
    # few buckets, so distinct words collide in them
    config = FeatureConfig(dim=4, hash_buckets=buckets, cue_lexicon=lexicon)
    matrices = base_features(docs, config)
    assert len(matrices) == len(docs)
    for doc, matrix in zip(docs, matrices):
        want = loop_base_features(doc, config)
        assert matrix.shape == want.shape and matrix.tobytes() == want.tobytes()
        assert matrix.tobytes() == base_features([doc], config)[0].tobytes()


# Width 4 or 8, 1-3 layers, 1, 2 or 4 heads, 1-9 sentences, any variant.
model_shapes = st.tuples(st.sampled_from([4, 8]), st.integers(1, 3),
                         st.sampled_from([1, 2, 4]), st.integers(1, 9),
                         st.integers(0, 2 ** 16), st.sampled_from(list(Variant)))


@settings(FAST, max_examples=40)
@given(model_shapes)
def test_batched_forward_matches_each_row(shape):
    """Five perturbed parameter rows through one batched forward equal five
    unbatched calls bit for bit: hidden states, both heads and the
    value-only loss."""
    dim, layers, heads, n, seed, variant = shape
    rng = np.random.default_rng(seed)
    doc = Document.build("d", [f"w{rng.integers(6)} w{rng.integers(6)} w{i}" for i in range(n)],
                         labels=LabelSet(tuple(int(b) for b in rng.integers(0, 2, n)),
                                         (1,) + (0,) * (n - 1)))
    config = FeatureConfig(dim=dim, hash_buckets=2 * dim)
    params = init_params(config, n_layers=layers, n_heads=heads, rng_seed=seed)
    rows = params.vector + rng.normal(0.0, 0.1, size=(5, params.vector.size))
    batch = params._on(rows)
    raw = base_features([doc], config)[0]
    train_config = TrainConfig(variant=variant, beta=0.1)
    hidden, _ = encode_forward(raw @ batch.w_proj, batch)
    probs = heads_forward(hidden, batch)
    enc = forward_document([doc], batch, None, [raw], with_caches=False)
    values = training._stack_loss(enc, [training._doc_arrays(doc)], batch, train_config,
                                  with_grads=False)[0]
    assert hidden.shape == (5, n, dim) and values.shape == (5,)
    for b, row in enumerate(rows):
        one = params.from_vector(row)
        one_hidden, _ = encode_forward(raw @ one.w_proj, one)
        assert one_hidden.tobytes() == hidden[b].tobytes()
        for one_probs, batch_probs in zip(heads_forward(one_hidden, one), probs):
            assert one_probs.tobytes() == batch_probs[b].tobytes()
        value = total_loss([doc], one, train_config, config, with_grads=False).value
        assert np.float64(value).tobytes() == values[b].tobytes()


# Width 4 or 8, 0-3 layers, every head count that divides the width, 1-6
# sentences, any variant, and 1 or 3 probed entries per chunk.
probe_shapes = st.tuples(
    st.sampled_from([4, 8]).flatmap(
        lambda dim: st.tuples(st.just(dim), st.sampled_from([h for h in (1, 2, 4, 8)
                                                               if dim % h == 0]))),
    st.integers(0, 3), st.integers(1, 6), st.integers(0, 2 ** 16),
    st.sampled_from(list(Variant)), st.sampled_from([2, 6]))


@settings(FAST, max_examples=25)
@given(probe_shapes)
@example(((4, 2), 1, 3, 0, Variant.FULL, 6))  # small: a broken resume fails it first
def test_resumed_probe_chunks_match_the_loop_reference(shape):
    """With a handful of probed entries per chunk, chunks start inside every
    sublayer, at the heads, and run across sublayer boundaries; each resumes
    at the sublayer of its first entry, yet every block error equals the
    one-probe-at-a-time reference bit for bit, and each term's gradient norm,
    from one shared cached forward, equals its ``total_loss`` definition."""
    (dim, heads), layers, n, seed, variant, probe_rows = shape
    rng = np.random.default_rng(seed)
    doc = Document.build("d", [f"w{rng.integers(6)} w{rng.integers(6)} w{i}" for i in range(n)],
                         labels=LabelSet(tuple(int(b) for b in rng.integers(0, 2, n)),
                                         (1,) + (0,) * (n - 1)))
    config = FeatureConfig(dim=dim, hash_buckets=dim)
    params = init_params(config, n_layers=layers, n_heads=heads, rng_seed=seed)
    train_config = TrainConfig(variant=variant, beta=0.1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "_PROBE_ROWS", probe_rows)
        report = grad_check(params, doc, train_config, config)
    assert report.block_errors == loop_grad_check(params, doc, train_config, config)
    assert report.term_grad_norms == loop_term_grad_norms(params, doc, train_config, config)


def _stack_document(index, n, labels, seed):
    """Document ``index`` of a drawn batch: n sentences of a six-word
    vocabulary, about a third of them one repeated sentence, and no, some or
    all sentences labeled as summary."""
    rng = np.random.default_rng(seed)
    texts = ["we repeat this sentence" if rng.random() < 0.3 else
             f"w{rng.integers(6)} w{rng.integers(6)} w{rng.integers(6)}" for _ in range(n)]
    summary = {"none": np.zeros(n, int), "some": rng.integers(0, 2, n),
               "all": np.ones(n, int)}[labels]
    boundary = (1,) + tuple(int(b) for b in rng.integers(0, 2, n - 1))
    return Document.build(f"d{index}", texts, labels=LabelSet(
        tuple(int(v) for v in summary), boundary))


# Batches of 1-8 documents of 1-40 sentences: one-sentence documents,
# documents without summary labels (the repulsion term is skipped) and with
# more summary sentences than the encoder width, and repeated sentences.
stack_batches = st.lists(
    st.tuples(st.integers(1, 40), st.sampled_from(["none", "some", "all"]),
              st.integers(0, 2 ** 16)),
    min_size=1, max_size=8)
stack_models = st.tuples(st.sampled_from([4, 8]), st.integers(1, 2),
                         st.integers(0, 2 ** 16), st.sampled_from(list(Variant)))


@settings(FAST, max_examples=100)
@given(stack_batches, stack_models, st.sets(st.integers(0, 7), min_size=1, max_size=3))
# one stack of a document with a summary and one without: the repulsion term
# runs on the first row only
@example([(6, "all", 1), (7, "none", 2)], (4, 1, 0, Variant.FULL), {0})
def test_stacked_loss_matches_the_document_loop(specs, model, poisoned):
    """``total_loss`` runs a batch as padded stacks with the dual repulsion
    term; the reference runs each document alone with the primal one. Value,
    parts and gradients agree to rounding, within 1e-10, or within 1e-6 when a
    summary is wider than the encoder: the subset minor is then singular up
    to the ridge 1e-8, with a condition number of up to 40 / 1e-8, which
    magnifies rounding of 1e-16 to about 4e-7. Each document takes the same
    ridge, and a non-finite loss names the same document."""
    docs = [_stack_document(i, *spec) for i, spec in enumerate(specs)]
    dim, layers, seed, variant = model
    config = FeatureConfig(dim=dim, hash_buckets=2 * dim)
    params = init_params(config, n_layers=layers, n_heads=2, rng_seed=seed)
    train_config = TrainConfig(variant=variant, beta=0.1)
    wide = variant is Variant.FULL and any(
        sum(doc.labels.summary_labels) > dim for doc in docs)
    rtol = 1e-6 if wide else 1e-10
    for with_grads in (True, False):
        loss = total_loss(docs, params, train_config, config, with_grads=with_grads)
        ref = loop_total_loss(docs, params, train_config, config, with_grads=with_grads)
        assert loss.value == pytest.approx(ref.value, rel=rtol)
        for term in ("sum", "seg", "dpp"):
            assert loss.parts[term] == pytest.approx(ref.parts[term], rel=rtol)
        assert loss.dpp_skipped == ref.dpp_skipped
        assert loss.ridges == ref.ridges
        for probs, ref_probs in zip(loss.head_probs, ref.head_probs, strict=True):
            for p, r in zip(probs, ref_probs):
                np.testing.assert_allclose(p, r, rtol=1e-10)
        if with_grads:
            scale = np.abs(ref.grads.vector).max()
            np.testing.assert_allclose(loss.grads.vector, ref.grads.vector,
                                       rtol=rtol, atol=rtol * scale)

    # a NaN summary label makes that document's loss non-finite
    for i in {p % len(docs) for p in poisoned}:
        labels = docs[i].labels
        docs[i] = dataclasses.replace(docs[i], labels=dataclasses.replace(
            labels, summary_labels=(float("nan"),) + labels.summary_labels[1:]))
    with pytest.raises(TrainingError) as got:
        total_loss(docs, params, train_config, config)
    with pytest.raises(TrainingError) as want:
        loop_total_loss(docs, params, train_config, config)
    assert str(got.value) == str(want.value)


@FAST
@given(st.lists(st.integers(1, 60), max_size=20))
def test_training_stacks_sort_stably_and_bound_the_padding(lengths):
    """``training._stacks`` orders the batch positions by length, ties in
    batch order, and pads no document past ``_MAX_PADDING`` times its length."""
    stacks = training._stacks(lengths)
    order = [i for stack in stacks for i in stack]
    assert sorted(order) == list(range(len(lengths)))
    assert all((lengths[a], a) < (lengths[b], b) for a, b in pairwise(order))
    for stack in stacks:
        padded = max(lengths[i] for i in stack)
        assert all(padded <= training._MAX_PADDING * lengths[i] for i in stack)


@FAST
@given(st.integers(9, 30).flatmap(lambda shortest: st.lists(
    st.integers(shortest, min(30, 3 * shortest)), min_size=1, max_size=8)))
@example([9, 27])  # exactly three times the shortest still joins
def test_a_batch_of_synth_default_lengths_is_one_stack(lengths):
    """Eight or fewer documents of 9 to 30 sentences, the longest at most
    three times the shortest, run as one stack."""
    assert training._stacks(lengths) == [sorted(range(len(lengths)), key=lengths.__getitem__)]


@FAST
@given(st.lists(st.integers(50, 60) | st.integers(200, 215), min_size=2, max_size=8))
def test_documents_of_about_50_and_200_sentences_never_share_a_stack(lengths):
    """Documents of about 50 and about 200 sentences (the long-docs
    workload's classes) never share a stack, so a 50-sentence document is
    never padded to 200 rows."""
    for stack in training._stacks(lengths):
        assert len({lengths[i] >= 200 for i in stack}) == 1


@FAST
@given(st.lists(st.sampled_from([1, 3, 7, 100, 128, 200, 256, 300]), max_size=30),
       st.sampled_from([1, 2, 4]))
@example([128] * 9 + [3, 128], 4)  # 2**18 // (4 * 128**2) = 4 to a stack
def test_prediction_stacks_partition_the_corpus_within_the_attention_budget(lengths, heads):
    """``predict_document``'s forward passes take every document exactly
    once, each pass documents of one sentence count and no padding; each
    length's documents keep corpus order, a stack of n-sentence documents
    holds at most max(1, 2**18 // (heads * n * n)) of them, each takes its
    own documents' matrices from one featurization of the corpus, and the
    predictions come back in corpus order."""
    documents = [SimpleNamespace(id=i, sentences=(None,) * n) for i, n in enumerate(lengths)]
    stacks = []
    featurized = []

    def featurize(docs, config):
        featurized.append(list(docs))
        return [f"features of {doc.id}" for doc in docs]

    def forward(docs, params, config, raw_features, with_caches):
        [n] = {len(doc.sentences) for doc in docs}
        assert raw_features == [f"features of {doc.id}" for doc in docs]
        stacks.append(docs)
        probs = np.full((len(docs), n), 0.5)  # one unpadded row per document
        return SimpleNamespace(summary_probs=probs, boundary_probs=probs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "base_features", featurize)
        patch.setattr(inference, "forward_document", forward)
        preds = inference.predict_document(documents, SimpleNamespace(n_heads=heads), None, 1)
    assert featurized == [documents]  # the whole corpus, in one call
    assert [pred.doc_id for pred in preds] == list(range(len(lengths)))
    assert [len(pred.scores_sum) for pred in preds] == lengths
    assert sorted(doc.id for stack in stacks for doc in stack) == list(range(len(lengths)))
    for n in set(lengths):
        in_stacks = [doc.id for stack in stacks for doc in stack if len(doc.sentences) == n]
        assert in_stacks == [i for i, m in enumerate(lengths) if m == n]
    for stack in stacks:
        n = len(stack[0].sentences)
        assert all(len(doc.sentences) == n for doc in stack)
        assert 1 <= len(stack) <= max(1, 2 ** 18 // (heads * n * n))
