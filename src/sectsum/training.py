"""Loss composition, Adam training loop, and finite-difference certification.

Three variants share one architecture and differ only in the loss:

- ``base``: mean binary cross-entropy on the summary head.
- ``joint``: adds mean binary cross-entropy on the boundary head.
- ``full``: adds ``beta`` times the determinantal repulsion loss whose
  ground-truth subset is the labeled summary sentences.

Batch losses and gradients are plain means over the documents in the batch.
Training is deterministic for a fixed seed when run single-threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import evaluation, inference
from .corpus import CorpusError, tokenize
from .dpp import DEFAULT_DPP_RIDGE, SingularMinorError, ZeroNormError, dpp_loss_and_grad
from .encoder import (
    FeatureConfig,
    NumericsError,
    _cut,
    base_features,
    backward_document,
    forward_document,
    init_params,
)
from .rouge import rouge_n

__all__ = [
    "Variant",
    "TrainConfig",
    "TrainingError",
    "BatchLoss",
    "FitResult",
    "GradCheckReport",
    "total_loss",
    "fit",
    "grad_check",
]

# Clamp applied to probabilities inside the BCE value; gradients are zero in
# the clamped region so value and gradient describe the same function.
_BCE_CLAMP = 1e-7

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8

# Perturbed parameter rows per batched value pass in grad_check (both signs
# of 128 entries). At the default gradcheck model, peak memory grows by about
# 7 KB per row: the rows and one layer's activations, as a value pass keeps
# no activation caches. Fewer, larger passes pay GELU's per-call costs less
# often.
_PROBE_ROWS = 256


class TrainingError(Exception):
    """Raised when training hits a non-finite loss."""


class Variant(str, Enum):
    BASE = "base"
    JOINT = "joint"
    FULL = "full"


@dataclass
class TrainConfig:
    """Optimization settings. ``beta`` is forced to zero for the base and
    joint variants; only ``full`` uses the repulsion term."""

    variant: Variant = Variant.FULL
    beta: float = 0.1
    learning_rate: float = 1e-3
    warmup_fraction: float = 0.1
    epochs: int = 20
    batch_size: int = 8
    grad_accumulation: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        self.variant = Variant(self.variant)
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError("beta must be finite and non-negative")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and non-negative")
        if not (0.0 <= self.warmup_fraction <= 1.0):
            raise ValueError("warmup_fraction must be in [0, 1]")
        for name in ("epochs", "batch_size", "grad_accumulation"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.variant is not Variant.FULL:
            self.beta = 0.0


def bce_loss(probs, labels, lengths, with_grads=False):
    """Row means of binary cross-entropy, probabilities clamped to
    [1e-7, 1 - 1e-7], and their gradients.

    ``probs`` (B, n) are rows padded to n, ``labels`` (B, n) or one row (n,)
    shared by every row, and ``lengths`` (B,) counts each row's real
    entries; each mean leaves the rest out. Returns the B means and their
    (B, n) gradients with respect to ``probs``, zero on clamped and on
    padded entries (None unless ``with_grads``)."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if labels.ndim == 0 or np.broadcast_shapes(probs.shape, labels.shape) != probs.shape:
        raise ValueError(f"shape mismatch: {probs.shape} vs {labels.shape}")
    lengths = np.asarray(lengths)
    p = np.clip(probs, _BCE_CLAMP, 1.0 - _BCE_CLAMP)
    padded = np.arange(probs.shape[-1]) >= lengths[:, None]
    terms = -(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
    values = np.where(padded, 0.0, terms).sum(axis=-1) / lengths
    if not with_grads:
        return values, None
    grads = (-(labels / p) + (1.0 - labels) / (1.0 - p)) / lengths[:, None]
    clamped = (probs < _BCE_CLAMP) | (probs > 1.0 - _BCE_CLAMP)
    return values, np.where(clamped | padded, 0.0, grads)


@dataclass
class BatchLoss:
    """Batch-mean loss value, per-term means (``dpp`` unscaled by beta),
    mean parameter gradients, how many documents skipped the repulsion
    term for lack of positive summary labels, and, in batch order, each
    document's ``(summary_probs, boundary_probs)`` and the ridge its
    repulsion term used (None where the term did not run)."""

    value: float
    parts: dict
    grads: object | None
    dpp_skipped: int
    head_probs: list
    ridges: list


def _doc_arrays(doc):
    if doc.labels is None:
        raise CorpusError(f"document {doc.id!r} has no labels; label it first")
    y_sum = np.asarray(doc.labels.summary_labels, dtype=float)
    y_seg = np.asarray(doc.labels.boundary_labels, dtype=float)
    return y_sum, y_seg


# No document in a stack is padded past this multiple of its own length. At 3
# a batch of synth-default documents (9 to 33 sentences) is nearly always one
# stack, and a 50-sentence document still never pads to 200 rows: with no
# limit, a pool of 50-, 200- and 400-sentence documents trained 3 times slower.
_MAX_PADDING = 3


def _stacks(lengths):
    """Batch positions sorted by length (stable) and cut into stacks: a
    stack takes the next document while it is at most ``_MAX_PADDING``
    times as long as the stack's first, shortest one."""
    stacks = []
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        if stacks and lengths[i] <= _MAX_PADDING * lengths[stacks[-1][0]]:
            stacks[-1].append(i)
        else:
            stacks.append([i])
    return stacks


def total_loss(documents, params, config, feature_config, features=None,
               with_grads=True):
    """Variant-dependent loss over a batch of labeled documents.

    The batch runs as stacks of documents of similar length (see
    :func:`_stacks`), each through :func:`_stack_loss`; only a gradient pass
    keeps activation caches. If any document fails (a non-finite activation
    or loss, a zero-norm sentence, a singular minor), the batch runs again
    one document at a time in batch order, so the error raised is the one
    the first failing document raises alone.

    Parameters
    ----------
    documents : list of Document
        Every document must carry labels.
    params : ModelParams
        One parameter row.
    config : TrainConfig
    feature_config : FeatureConfig
    features : list of arrays or None
        The documents' :func:`base_features` matrices in document order;
        computed per document when None.
    with_grads : bool
        Skip the backward pass when False (evaluation only). The repulsion
        term's subset minor gets the ridge ``DEFAULT_DPP_RIDGE`` either way.

    Returns
    -------
    BatchLoss
    """
    if not documents:
        raise ValueError("empty batch")
    if params.vector.ndim != 1:
        raise ValueError("total_loss takes one parameter row, not a batch")
    if features is None:
        features = [base_features(doc, feature_config) for doc in documents]
    if len(features) != len(documents):
        raise ValueError(f"{len(features)} feature matrices for {len(documents)} documents")
    labels = [_doc_arrays(doc) for doc in documents]
    n_docs = len(documents)

    def run(stacks):
        grads = None  # the first stack's gradient, summed into in place
        doc_values, doc_parts, head_probs, ridges = ([None] * n_docs for _ in range(4))
        for stack in stacks:
            values, parts, row_ridges, (p_sum, p_seg), stack_grads = _stack_loss(
                [documents[i] for i in stack], [features[i] for i in stack],
                [labels[i] for i in stack], params, config, with_grads)
            for row, i in enumerate(stack):
                n = len(documents[i])
                doc_values[i] = float(values[row])
                doc_parts[i] = {k: float(v[row]) for k, v in parts.items()}
                head_probs[i] = (p_sum[row, :n], p_seg[row, :n])
                ridges[i] = None if np.isnan(row_ridges[row]) else float(row_ridges[row])
            if grads is None:
                grads = stack_grads
            else:
                grads.vector[...] += stack_grads.vector
        if with_grads:
            grads.vector[...] /= n_docs
        repulsion = config.variant is Variant.FULL and config.beta > 0.0
        return BatchLoss(
            value=sum(doc_values) / n_docs,
            parts={k: sum(p[k] for p in doc_parts) / n_docs for k in ("sum", "seg", "dpp")},
            grads=grads,
            dpp_skipped=ridges.count(None) if repulsion else 0,
            head_probs=head_probs,
            ridges=ridges,
        )

    alone = [[i] for i in range(n_docs)]
    stacks = _stacks([len(doc) for doc in documents])
    try:
        return run(stacks)
    except (NumericsError, ZeroNormError, SingularMinorError, TrainingError):
        if stacks == alone:
            raise
    return run(alone)


def _stack_loss(docs, features, labels, params, config, with_grads):
    """The loss of one stack: the :func:`base_features` matrices
    ``features`` of ``docs`` padded to the longest and taken through one
    forward pass, the cross-entropy terms against ``labels``
    (:func:`_doc_arrays` of each document), one repulsion term and, with
    gradients, one backward pass. Row r of the activations is document r;
    or, for values only, one document is broadcast against a batch of
    parameter rows (a (B, P) vector), row r then being parameter row r.

    Returns per-row values, parts (``dpp`` unscaled by beta), ridges (NaN
    where the repulsion term did not run) and ``(summary_probs,
    boundary_probs)``, and the stack's summed gradient (None without
    gradients). A non-finite loss raises for the stack's first such
    document."""
    enc = forward_document(docs, params, None, features, with_caches=with_grads)
    p_sum, p_seg = enc.summary_probs, enc.boundary_probs
    n_rows, n = p_sum.shape
    lengths = np.array([len(doc) for doc in docs])
    y_sum, y_seg = np.zeros((2, len(docs), n))
    for row, (length, (doc_sum, doc_seg)) in enumerate(zip(lengths, labels)):
        y_sum[row, :length], y_seg[row, :length] = doc_sum, doc_seg
    lengths = np.broadcast_to(lengths, n_rows)  # one document against B parameter rows
    sum_values, d_sum = bce_loss(p_sum, y_sum, lengths, with_grads)
    parts = {"sum": sum_values, "seg": np.zeros(n_rows), "dpp": np.zeros(n_rows)}
    d_seg = d_hidden = None
    if config.variant is not Variant.BASE:
        parts["seg"], d_seg = bce_loss(p_seg, y_seg, lengths, with_grads)

    ridges = np.full(n_rows, np.nan)
    if config.variant is Variant.FULL and config.beta > 0.0:
        in_subset = np.broadcast_to(y_sum == 1.0, p_sum.shape)
        live = np.flatnonzero(in_subset.any(axis=1))
        if live.size:
            rep = dpp_loss_and_grad(enc.hidden[live], p_sum[live], in_subset[live],
                                    lengths[live], ridge=DEFAULT_DPP_RIDGE,
                                    with_grads=with_grads)
            parts["dpp"][live] = rep.value
            ridges[live] = rep.ridges
            if with_grads:
                d_hidden = np.zeros_like(enc.hidden)
                d_hidden[live] = config.beta * rep.d_hidden
                d_sum[live] += config.beta * rep.d_quality
    values = parts["sum"] + parts["seg"] + config.beta * parts["dpp"]
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        # with one document broadcast against parameter rows, a row is no document
        doc = docs[bad[0] if len(docs) > 1 else 0]
        raise TrainingError(f"non-finite loss on document {doc.id!r}")
    grads = None
    if with_grads:
        grads = backward_document(enc, params, d_hidden=d_hidden, d_summary=d_sum,
                                  d_boundary=d_seg)
    return values, parts, ridges, (p_sum, p_seg), grads


def learning_rate_at(step, total_steps, base_rate, warmup_fraction):
    """Linear warmup: rate = base * step / ceil(warmup_fraction * total),
    then flat. ``step`` is 1-based; the schedule is continuous at the
    boundary."""
    if total_steps < 1:
        raise ValueError("total_steps must be at least 1")
    if step < 1:
        raise ValueError("step is 1-based")
    warmup_steps = math.ceil(warmup_fraction * total_steps)
    if warmup_steps > 0 and step <= warmup_steps:
        return base_rate * step / warmup_steps
    return base_rate


@dataclass
class FitResult:
    params: object
    best_params: object
    history: list = field(default_factory=list)


def _validation_metrics(val_docs, params, config, feature_config, features,
                        eval_top_k):
    loss = total_loss(val_docs, params, config, feature_config,
                      features=features, with_grads=False)
    rouge_scores = []
    seg_scores = []
    for doc, (summary_probs, boundary_probs) in zip(val_docs, loss.head_probs):
        if doc.reference_summary:
            picked = inference.select_top_k(summary_probs, eval_top_k)
            rouge_scores.append(rouge_n(doc.summary_tokens(picked),
                                        tokenize(doc.reference_summary), 1).f1)
        hyp = inference.predict_boundaries(boundary_probs)
        ref = {i for i, v in enumerate(doc.labels.boundary_labels) if v == 1}
        seg_scores.append(evaluation.seg_f1(hyp, ref).f1)
    return {
        "val_loss": loss.value,
        "val_rouge1_f": float(np.mean(rouge_scores)) if rouge_scores else None,
        "val_seg_f1": float(np.mean(seg_scores)) if seg_scores else None,
    }


def fit(train_docs, config, feature_config=None, val_docs=(),
        n_layers=2, n_heads=4, ffn_hidden=None, eval_top_k=3):
    """Train a model with Adam and linear warmup.

    Parameters
    ----------
    train_docs : list of Document
        Labeled training documents.
    config : TrainConfig
    feature_config : FeatureConfig or None
        Defaults to ``FeatureConfig()``.
    val_docs : list of Document
        Optional labeled validation documents; per-epoch metrics are logged
        against them and the best-validation-loss parameters are retained.
    n_layers, n_heads, ffn_hidden
        Architecture knobs; the parameters are initialized from the config
        seed.
    eval_top_k
        Summary size for the per-epoch validation ROUGE-1; validation
        boundaries use ``inference.DEFAULT_BOUNDARY_THRESHOLD``.

    Returns
    -------
    FitResult
        Final parameters, best-validation parameters (final ones when no
        validation set was given), and a per-epoch history of
        ``{epoch, train_loss, val_loss, val_rouge1_f, val_seg_f1}``.
    """
    if not train_docs:
        raise CorpusError("no training documents")
    for doc in [*train_docs, *val_docs]:
        _doc_arrays(doc)  # a missing label stops the run before its first step
    feature_config = feature_config or FeatureConfig()
    params = init_params(feature_config, n_layers=n_layers, n_heads=n_heads,
                         ffn_hidden=ffn_hidden, rng_seed=config.rng_seed)
    train_features = [base_features(doc, feature_config) for doc in train_docs]
    val_features = [base_features(doc, feature_config) for doc in val_docs]
    rng = np.random.default_rng(config.rng_seed)
    n = len(train_docs)
    batches_per_epoch = math.ceil(n / config.batch_size)
    updates_per_epoch = math.ceil(batches_per_epoch / config.grad_accumulation)
    total_updates = config.epochs * updates_per_epoch

    theta = params.vector  # Adam updates the parameters in place
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    update = 0
    history = []
    best_key = math.inf
    best_theta = theta.copy()

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        epoch_losses = []
        pending = np.zeros_like(theta)
        pending_count = 0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            result = total_loss([train_docs[i] for i in batch], params, config,
                                feature_config, [train_features[i] for i in batch])
            epoch_losses.append(result.value)
            pending += result.grads.vector
            pending_count += 1
            is_last = start + config.batch_size >= n
            if pending_count == config.grad_accumulation or is_last:
                update += 1
                grad = pending / pending_count
                rate = learning_rate_at(update, total_updates,
                                        config.learning_rate,
                                        config.warmup_fraction)
                adam_m = _ADAM_BETA1 * adam_m + (1.0 - _ADAM_BETA1) * grad
                adam_v = _ADAM_BETA2 * adam_v + (1.0 - _ADAM_BETA2) * grad * grad
                m_hat = adam_m / (1.0 - _ADAM_BETA1 ** update)
                v_hat = adam_v / (1.0 - _ADAM_BETA2 ** update)
                theta -= rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
                pending[...] = 0.0
                pending_count = 0

        record = {"epoch": epoch, "train_loss": float(np.mean(epoch_losses)),
                  "val_loss": None, "val_rouge1_f": None, "val_seg_f1": None}
        if val_docs:
            record.update(_validation_metrics(
                val_docs, params, config, feature_config, val_features, eval_top_k))
        history.append(record)
        key = record["val_loss"] if val_docs else record["train_loss"]
        if key < best_key:
            best_key = key
            best_theta = theta.copy()

    return FitResult(
        params=params,
        best_params=params.from_vector(best_theta),
        history=history,
    )


# ---------------------------------------------------------------------------
# Gradient certification
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    """Per-block maximum relative error between analytic and central
    finite-difference gradients, plus per-term gradient norms."""

    block_errors: dict
    term_grad_norms: dict
    max_error: float
    tolerance: float
    step: float

    @property
    def passed(self):
        return self.max_error <= self.tolerance

    def summary_lines(self):
        lines = []
        for name, err in self.block_errors.items():
            flag = "ok" if err <= self.tolerance else "FAIL"
            lines.append(f"{name:<24s} max rel err {err:.3e}  {flag}")
        for term, norm in self.term_grad_norms.items():
            lines.append(f"term {term:<19s} grad norm   {norm:.3e}")
        lines.append(
            f"overall max rel err {self.max_error:.3e} "
            f"(tolerance {self.tolerance:g}): "
            f"{'PASS' if self.passed else 'FAIL'}"
        )
        return lines


def grad_check(params, doc, config, feature_config, step=1e-5, tolerance=1e-4,
               analytic=None):
    """Certify analytic gradients against central finite differences.

    Every parameter entry is perturbed by ``step`` in both directions. The
    relative error uses |a - f| / max(|a|, |f|, 1e-5); the floor keeps
    round-off noise on near-zero gradients from flagging spuriously. A
    non-finite analytic or finite-difference entry counts as an infinite
    error.

    The perturbed parameter rows are built ``_PROBE_ROWS`` at a time, and
    each chunk is one value-only :func:`_stack_loss` pass, the document
    broadcast against the chunk's rows; every loss is bitwise the one
    :func:`total_loss` gives on that row.

    The document is featurized once. One gradient pass of
    :func:`_stack_loss` per cumulative objective (base, joint, full, up to
    ``config.variant``) gives each term's gradient norm (0.0 for inactive
    terms) as the norm of the difference between the objective that adds
    the term and the one before. The last objective's gradient is the
    analytic one, unless ``analytic`` supplies (possibly tampered) gradients.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step}")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance}")
    features, labels = [base_features(doc, feature_config)], [_doc_arrays(doc)]
    variants = list(Variant)
    grads = [_stack_loss([doc], features, labels, params, replace(config, variant=variant),
                         with_grads=True)[-1].vector
             for variant in variants[:variants.index(config.variant) + 1]]
    norms = {"sum": float(np.linalg.norm(grads[0])), "seg": 0.0, "dpp": 0.0}
    for term, lower, upper in zip(("seg", "dpp"), grads, grads[1:]):
        norms[term] = float(np.linalg.norm(upper - lower))
    theta = params.vector
    fd = np.empty_like(theta)
    half = _PROBE_ROWS // 2
    buffer = np.empty((2 * half, theta.size))  # reused: one chunk of rows is live at a time
    for start in range(0, theta.size, half):
        entries = np.arange(start, min(start + half, theta.size))
        m = entries.size
        rows = buffer[:2 * m]  # rows [0, m) step up, rows [m, 2m) down
        rows[...] = theta
        rows[np.arange(m), entries] = theta[entries] + step
        rows[np.arange(m, 2 * m), entries] = theta[entries] - step
        values = _stack_loss([doc], features, labels, params._on(rows), config,
                             with_grads=False)[0]
        fd[entries] = (values[:m] - values[m:]) / (2.0 * step)

    a = grads[-1] if analytic is None else analytic.vector
    with np.errstate(invalid="ignore"):
        rel = np.abs(a - fd) / np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-5)
    rel[~(np.isfinite(a) & np.isfinite(fd))] = np.inf
    block_errors = {name: float(err.max()) for name, err in _cut(rel, params._shapes())}

    return GradCheckReport(
        block_errors=block_errors,
        term_grad_norms=norms,
        max_error=max(block_errors.values()),
        tolerance=tolerance,
        step=step,
    )
