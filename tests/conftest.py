import dataclasses
import math
import zlib
from collections import Counter

import numpy as np
import pytest

from sectsum import (
    Document, FeatureConfig, SynthConfig, TrainingError, Variant,
    backward_document, base_features, candidate_score, dpp_loss_and_grad,
    forward_document, generate_synthetic, init_params, render_summary, rouge_l, rouge_n,
    select_top_k, tokenize, total_loss, training,
)
from sectsum.dpp import SingularMinorError
from sectsum.encoder import N_SCALAR_FEATURES

# Lines appended by the acceptance tests; replayed after the run so they
# stay visible even though pytest captures per-test stdout.
acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)


def make_doc(doc_id="doc0", texts=("alpha beta", "gamma delta", "alpha beta gamma"),
             section_starts=(0, 2), reference="alpha beta gamma delta"):
    """Small handcrafted document used across the suite."""
    return Document.build(doc_id, list(texts), section_starts=section_starts,
                          reference_summary=reference)


def dp_lcs_length(a, b):
    """Longest common subsequence by the two-row dynamic program, O(len(a) *
    len(b)) time: the reference for the bit-parallel ``Reference.lcs``."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def counter_rouge_n(system, reference, n):
    """ROUGE-N by its definition: both sides' n-gram ``Counter``s, clipped
    by ``Counter.__and__``; ``rouge_n`` must give the same floats."""
    def grams(tokens):
        return Counter(zip(*(tokens[i:] for i in range(n))))
    sys_counts, ref_counts = grams(list(system)), grams(list(reference))
    overlap = sum((sys_counts & ref_counts).values())
    n_sys, n_ref = sum(sys_counts.values()), sum(ref_counts.values())
    precision = overlap / n_sys if n_sys else 0.0
    recall = overlap / n_ref if n_ref else 0.0
    total = precision + recall
    return (precision, recall, 2.0 * precision * recall / total if total else 0.0)


def loop_score_vs_k(predictions, documents, k_max):
    """The score-vs-k rows by their definition: for every k, each document's
    top-k summary (``select_top_k``) is rendered, tokenized and scored from
    scratch with ``rouge_n`` and ``rouge_l``. ``score_vs_k`` must equal it."""
    by_id = {doc.id: doc for doc in documents}
    rows = []
    for k in range(1, k_max + 1):
        r1, r2, rl, words = [], [], [], []
        for pred in predictions:
            doc = by_id[pred.doc_id]
            selected = select_top_k(np.asarray(pred.scores_sum), k)
            system = tokenize(render_summary(doc, selected))
            reference = tokenize(doc.reference_summary)
            r1.append(rouge_n(system, reference, 1).f1)
            r2.append(rouge_n(system, reference, 2).f1)
            rl.append(rouge_l(system, reference).f1)
            words.append(len(system))
        rows.append({"k": k, "rouge1_f": float(np.mean(r1)),
                     "rouge2_f": float(np.mean(r2)),
                     "rougeL_f": float(np.mean(rl)),
                     "avg_words": float(np.mean(words))})
    return rows


def loop_windowdiff(predicted, reference, n):
    """WindowDiff by its definition: each of the n - k windows counts both
    sides' boundaries in (i, i + k] by a scan over the boundary sets."""
    pred = {int(b) for b in predicted if 0 < int(b) < n}
    ref = {int(b) for b in reference if 0 < int(b) < n}
    k = max(1, math.floor(n / (2.0 * (len(ref) + 1)) + 0.5))
    if n <= k:
        raise ValueError(f"document too short for WindowDiff (n = {n}, k = {k})")
    disagreements = 0
    for i in range(n - k):
        ref_count = sum(1 for b in ref if i < b <= i + k)
        pred_count = sum(1 for b in pred if i < b <= i + k)
        if ref_count != pred_count:
            disagreements += 1
    return disagreements / (n - k)


def loop_boundary_proximity_histogram(summary_indices, section_starts, n):
    """``boundary_proximity_histogram`` by a scan of the section starts for
    each index's section."""
    starts = sorted({int(b) for b in section_starts})
    if not starts or starts[0] != 0 or starts[-1] >= n:
        raise ValueError("section_starts must begin at 0 and stay below n")
    counts = {}
    for idx in summary_indices:
        idx = int(idx)
        if not (0 <= idx < n):
            raise ValueError(f"summary index {idx} out of range")
        section = max(i for i, b in enumerate(starts) if b <= idx)
        start = starts[section]
        end = starts[section + 1] - 1 if section + 1 < len(starts) else n - 1
        positive = idx - start + 1
        negative = idx - end - 1
        offset = positive if abs(positive) <= abs(negative) else negative
        counts[offset] = counts.get(offset, 0) + 1
    return dict(sorted(counts.items()))


def rescoring_greedy_labels(doc, max_sentences=None):
    """The greedy oracle by definition: every step rescores every candidate
    selection from scratch with ``candidate_score`` (cubic in the document
    length). ``greedy_summary_labels`` must return exactly this."""
    reference_tokens = tokenize(doc.reference_summary)
    n = len(doc.sentences)
    limit = n if max_sentences is None else min(max_sentences, n)
    selected, best_score = [], 0.0
    while len(selected) < limit:
        best_idx = None
        for i in range(n):
            if i not in selected:
                score = candidate_score(selected + [i], doc, reference_tokens)
                if score > best_score:
                    best_score, best_idx = score, i
        if best_idx is None:
            break
        selected.append(best_idx)
    return tuple(int(i in selected) for i in range(n)), tuple(selected)


def primal_kernel(hidden, quality):
    """The primal kernel L = diag(q) S diag(q) of one document, with S = U U^T
    the cosine Gram of its unit rows U, and S itself."""
    unit = hidden / np.linalg.norm(hidden, axis=1, keepdims=True)
    similarity = unit @ unit.T
    similarity = 0.5 * (similarity + similarity.T)
    return quality[:, None] * similarity * quality[None, :], similarity


def subset_masks(subsets, n):
    """A (G, n) boolean mask, row g marking ``subsets[g]`` of a document of n
    rows: the ``in_subset`` argument of ``dpp_loss_and_grad`` for G copies of
    that document."""
    mask = np.zeros((len(subsets), n), dtype=bool)
    for row, subset in zip(mask, subsets):
        row[list(subset)] = True
    return mask


def one_document(hidden, quality, subsets, **kwargs):
    """``dpp_loss_and_grad`` of one unpadded document (n, d), once per subset:
    a stack of len(subsets) copies of it."""
    n = len(quality)
    return dpp_loss_and_grad(np.broadcast_to(hidden, (len(subsets),) + hidden.shape),
                             np.broadcast_to(quality, (len(subsets), n)),
                             subset_masks(subsets, n), [n] * len(subsets), **kwargs)


def _inverse_from_factor(factor):
    """M^-1 = C^-T C^-1 from the lower Cholesky factor C of M."""
    factor_inv = np.linalg.solve(factor, np.eye(len(factor)))
    return factor_inv.T @ factor_inv


def primal_dpp_loss_and_grad(hidden, quality, subset, ridge):
    """The repulsion loss by its primal formula, with the ridge as given (no
    escalation): value, d_hidden and d_quality. The adjoint
    d value / dL = (L + I)^-1 - embed(A^-1), A = L_Y + ridge I, comes from
    explicit inverses and is pushed back through L = diag(q) S diag(q) and
    S = U U^T as n x n matrices; ``dpp_loss_and_grad`` must agree with it."""
    hidden = np.asarray(hidden, dtype=float)
    quality = np.asarray(quality, dtype=float)
    kernel, similarity = primal_kernel(hidden, quality)
    subset = sorted(set(subset))
    full = kernel + np.eye(len(quality))
    minor = kernel[np.ix_(subset, subset)] + ridge * np.eye(len(subset))
    full_factor, minor_factor = np.linalg.cholesky(full), np.linalg.cholesky(minor)
    value = (2.0 * np.log(np.diag(full_factor)).sum()
             - 2.0 * np.log(np.diag(minor_factor)).sum())

    inv_full = _inverse_from_factor(full_factor)
    inv_minor = _inverse_from_factor(minor_factor)
    d_kernel = inv_full.copy()
    d_kernel[np.ix_(subset, subset)] -= inv_minor
    d_kernel = 0.5 * (d_kernel + d_kernel.T)
    d_quality = 2.0 * ((d_kernel * similarity) @ quality)
    d_similarity = d_kernel * np.outer(quality, quality)
    norms = np.linalg.norm(hidden, axis=1)
    unit = hidden / norms[:, None]
    d_unit = 2.0 * d_similarity @ unit
    radial = (d_unit * unit).sum(axis=1, keepdims=True)
    d_hidden = (d_unit - radial * unit) / norms[:, None]
    return float(value), d_hidden, d_quality


def primal_ridge(hidden, quality, subset, ridge):
    """The ridge the subset minor L_Y of the primal kernel takes: ``ridge``,
    raised tenfold (up to 1e-4) until the Cholesky factorization succeeds."""
    minor = primal_kernel(hidden, quality)[0][np.ix_(subset, subset)]
    eps = ridge
    while True:
        try:
            pivots = np.diag(np.linalg.cholesky(minor + eps * np.eye(len(subset))))
            if np.all(pivots > 0) and np.isfinite(pivots).all():
                return eps
        except np.linalg.LinAlgError:
            pass
        if eps == 0.0 or eps >= 1e-4:
            raise SingularMinorError(f"singular subset minor (ridge = {eps:g})")
        eps = min(eps * 10.0, 1e-4)


def loop_total_loss(documents, params, config, feature_config, features=None,
                    with_grads=True):
    """``total_loss`` as a loop over the documents, one forward, one primal
    repulsion term and one backward pass each, in batch order; the first
    document with a non-finite loss raises. The repulsion term is the primal
    one: log det(L + I) and the minor L_Y of the n x n kernel, whose ridge
    escalates as in ``primal_ridge``. Returns a ``BatchLoss`` whose
    ``ridges`` lists each document's ridge."""
    ridge = training.DEFAULT_DPP_RIDGE
    grads = params.zeros_like() if with_grads else None
    value, parts = 0.0, {"sum": 0.0, "seg": 0.0, "dpp": 0.0}
    skipped, head_probs, ridges = 0, [], []
    if features is None:
        features = [None] * len(documents)
    for doc, raw in zip(documents, features, strict=True):
        y_sum = np.asarray(doc.labels.summary_labels, dtype=float)
        y_seg = np.asarray(doc.labels.boundary_labels, dtype=float)
        enc = forward_document(doc, params, feature_config, raw)
        p_sum, p_seg = enc.summary_probs, enc.boundary_probs
        head_probs.append((p_sum, p_seg))
        doc_value, d_sum = reference_bce(p_sum, y_sum)
        parts["sum"] += doc_value
        d_seg = d_hidden = doc_ridge = None
        if config.variant is not Variant.BASE:
            seg_value, d_seg = reference_bce(p_seg, y_seg)
            parts["seg"] += seg_value
            doc_value += seg_value
        if config.variant is Variant.FULL and config.beta > 0.0:
            subset = np.flatnonzero(y_sum == 1.0)
            if subset.size == 0:
                skipped += 1
            else:
                doc_ridge = primal_ridge(enc.hidden, p_sum, subset, ridge)
                dpp_value, d_hidden, d_quality = primal_dpp_loss_and_grad(
                    enc.hidden, p_sum, subset, doc_ridge)
                if with_grads:
                    d_hidden = config.beta * d_hidden
                    d_sum = d_sum + config.beta * d_quality
                parts["dpp"] += dpp_value
                doc_value += config.beta * dpp_value
        ridges.append(doc_ridge)
        if not np.isfinite(doc_value):
            raise TrainingError(f"non-finite loss on document {doc.id!r}")
        value += doc_value
        if with_grads:
            grads.vector[...] += backward_document(
                enc, params, d_hidden=d_hidden, d_summary=d_sum, d_boundary=d_seg).vector
    if with_grads:
        grads.vector[...] /= len(documents)
    return training.BatchLoss(
        value=value / len(documents), parts={k: v / len(documents) for k, v in parts.items()},
        grads=grads, dpp_skipped=skipped, head_probs=head_probs, ridges=ridges)


def reference_bce(probs, labels):
    """Mean binary cross-entropy of probabilities clamped to [1e-7, 1 - 1e-7]
    and its gradient, which is zero where the clamp binds."""
    p = np.clip(probs, 1e-7, 1.0 - 1e-7)
    value = float(-(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)).mean())
    grad = (-(labels / p) + (1.0 - labels) / (1.0 - p)) / len(probs)
    return value, np.where((probs < 1e-7) | (probs > 1.0 - 1e-7), 0.0, grad)


def loop_base_features(doc, config):
    """``base_features`` by its definition: every token occurrence is hashed
    into its crc32 bucket and each row normalized on its own, and the
    centroid column counts the tokens a second time into its own
    sentence x vocabulary TF matrix. ``base_features`` must equal it bit for
    bit."""
    n = len(doc.sentences)
    buckets = config.hash_buckets
    out = np.zeros((n, buckets + N_SCALAR_FEATURES))
    for i, sent in enumerate(doc.sentences):
        for tok in sent.tokens:
            out[i, zlib.crc32(tok.encode("utf-8")) % buckets] += 1.0
        norm = np.linalg.norm(out[i, :buckets])
        if norm > 0:
            out[i, :buckets] /= norm
    out[:, buckets] = np.arange(n) / n
    out[:, buckets + 1] = [math.log1p(len(s.tokens)) for s in doc.sentences]

    vocab = sorted({t for s in doc.sentences for t in s.tokens})
    if vocab:
        col = {t: j for j, t in enumerate(vocab)}
        tf = np.zeros((n, len(vocab)))
        for i, sent in enumerate(doc.sentences):
            for tok in sent.tokens:
                tf[i, col[tok]] += 1.0
        df = (tf > 0).sum(axis=0)
        vec = tf * (np.log((1.0 + n) / (1.0 + df)) + 1.0)
        centroid = vec.mean(axis=0)
        c_norm = np.linalg.norm(centroid)
        for i in range(n):
            v_norm = np.linalg.norm(vec[i])
            if c_norm > 0 and v_norm > 0:
                out[i, buckets + 2] = float(vec[i] @ centroid) / (v_norm * c_norm)

    lexicon = [phrase.lower() for phrase in config.cue_lexicon]
    for i, sent in enumerate(doc.sentences):
        if any(phrase in sent.text.lower() for phrase in lexicon):
            out[i, buckets + 3] = 1.0
    return out


def loop_grad_check(params, doc, config, feature_config, step=1e-5, analytic=None):
    """``grad_check``'s block errors by their definition: every parameter
    entry is perturbed in place by +step and -step, one unbatched value-only
    ``total_loss`` per probe, and the block keeps its worst relative error (a
    non-finite entry counts as infinite). ``grad_check`` must equal it bit
    for bit."""
    if analytic is None:
        analytic = total_loss([doc], params, config, feature_config).grads
    probe = params.from_vector(params.vector)
    features = [base_features(doc, feature_config)]

    def loss_at():
        return total_loss([doc], probe, config, feature_config, features=features,
                          with_grads=False).value

    block_errors = {}
    for (name, arr), (_, grad) in zip(probe.blocks(), analytic.blocks()):
        worst = 0.0
        for idx in np.ndindex(arr.shape):
            saved = arr[idx]
            arr[idx] = saved + step
            up = loss_at()
            arr[idx] = saved - step
            down = loss_at()
            arr[idx] = saved
            fd = (up - down) / (2.0 * step)
            a = grad[idx]
            if math.isfinite(a) and math.isfinite(fd):
                worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-5))
            else:
                worst = math.inf
        block_errors[name] = worst
    return block_errors


def loop_term_grad_norms(params, doc, config, feature_config):
    """``grad_check``'s per-term gradient norms by their definition: the
    ``total_loss`` gradients of the cumulative objectives base, joint and
    full (up to ``config.variant``), each term's norm that of the difference
    between the objective that adds it and the one before (0.0 for inactive
    terms). ``grad_check`` must equal them bit for bit."""
    variants = [Variant.BASE, Variant.JOINT, Variant.FULL]
    grads = [total_loss([doc], params, dataclasses.replace(config, variant=variant),
                        feature_config).grads.vector
             for variant in variants[:variants.index(config.variant) + 1]]
    norms = {"sum": float(np.linalg.norm(grads[0])), "seg": 0.0, "dpp": 0.0}
    for term, lower, upper in zip(("seg", "dpp"), grads, grads[1:]):
        norms[term] = float(np.linalg.norm(upper - lower))
    return norms


@pytest.fixture(scope="session")
def tiny_corpus():
    """Eight labeled synthetic documents, shared read-only across tests."""
    config = SynthConfig(n_documents=8, sections_per_document=(2, 3),
                         sentences_per_section=(3, 4), rng_seed=11)
    return generate_synthetic(config)


@pytest.fixture(scope="session")
def small_model():
    """A small feature config and freshly initialized parameters."""
    config = FeatureConfig(dim=8, hash_buckets=16)
    params = init_params(config, n_layers=1, n_heads=2, rng_seed=5)
    return config, params
